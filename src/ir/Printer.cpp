//===--- Printer.cpp - Textual IR printing ----------------------------------===//
//
// Part of the OLPP project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"

#include "ir/Module.h"

using namespace olpp;

static const char *opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Const:
    return "const";
  case Opcode::Move:
    return "mov";
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::Div:
    return "div";
  case Opcode::Mod:
    return "mod";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Shl:
    return "shl";
  case Opcode::Shr:
    return "shr";
  case Opcode::CmpEq:
    return "cmpeq";
  case Opcode::CmpNe:
    return "cmpne";
  case Opcode::CmpLt:
    return "cmplt";
  case Opcode::CmpLe:
    return "cmple";
  case Opcode::CmpGt:
    return "cmpgt";
  case Opcode::CmpGe:
    return "cmpge";
  case Opcode::Neg:
    return "neg";
  case Opcode::Not:
    return "not";
  case Opcode::LoadG:
    return "loadg";
  case Opcode::StoreG:
    return "storeg";
  case Opcode::LoadArr:
    return "loadarr";
  case Opcode::StoreArr:
    return "storearr";
  case Opcode::Call:
    return "call";
  case Opcode::CallInd:
    return "callind";
  case Opcode::Ret:
    return "ret";
  case Opcode::Br:
    return "br";
  case Opcode::CondBr:
    return "condbr";
  case Opcode::Probe:
    return "probe";
  }
  return "?";
}

static const char *probeOpName(ProbeOpKind K) {
  switch (K) {
  case ProbeOpKind::BLSet:
    return "blset";
  case ProbeOpKind::BLAdd:
    return "bladd";
  case ProbeOpKind::BLCount:
    return "blcount";
  case ProbeOpKind::OLDisarm:
    return "oldisarm";
  case ProbeOpKind::OLArm:
    return "olarm";
  case ProbeOpKind::OLAdd:
    return "oladd";
  case ProbeOpKind::OLPred:
    return "olpred";
  case ProbeOpKind::OLFlush:
    return "olflush";
  case ProbeOpKind::IPCall:
    return "ipcall";
  case ProbeOpKind::IPArmII:
    return "iparm2";
  case ProbeOpKind::IPAddII:
    return "ipadd2";
  case ProbeOpKind::IPPredII:
    return "ippred2";
  case ProbeOpKind::IPFlushII:
    return "ipflush2";
  case ProbeOpKind::IPEnter:
    return "ipenter";
  case ProbeOpKind::IPAddI:
    return "ipadd1";
  case ProbeOpKind::IPPredI:
    return "ippred1";
  case ProbeOpKind::IPFlushI:
    return "ipflush1";
  case ProbeOpKind::IPRet:
    return "ipret";
  }
  return "?";
}

static std::string regName(Reg R) {
  if (R == NoReg)
    return "_";
  return "%" + std::to_string(R);
}

std::string olpp::printInstruction(const Instruction &I, const Module *M) {
  std::string Out = opcodeName(I.Op);
  auto Block = [](const BasicBlock *B) {
    return "^" + std::to_string(B->Id) + "(" + B->Name + ")";
  };
  switch (I.Op) {
  case Opcode::Const:
    Out += " " + regName(I.Dst) + ", " + std::to_string(I.Imm);
    break;
  case Opcode::Move:
  case Opcode::Neg:
  case Opcode::Not:
    Out += " " + regName(I.Dst) + ", " + regName(I.Src0);
    break;
  case Opcode::LoadG:
    Out += " " + regName(I.Dst) + ", @" + std::to_string(I.GlobalId);
    break;
  case Opcode::StoreG:
    Out += " @" + std::to_string(I.GlobalId) + ", " + regName(I.Src0);
    break;
  case Opcode::LoadArr:
    Out += " " + regName(I.Dst) + ", @" + std::to_string(I.GlobalId) + "[" +
           regName(I.Src0) + "]";
    break;
  case Opcode::StoreArr:
    Out += " @" + std::to_string(I.GlobalId) + "[" + regName(I.Src0) + "], " +
           regName(I.Src1);
    break;
  case Opcode::CallInd: {
    Out += " " + regName(I.Dst) + ", *" + regName(I.Src0) + "(";
    for (size_t A = 0; A < I.Args.size(); ++A) {
      if (A)
        Out += ", ";
      Out += regName(I.Args[A]);
    }
    Out += ")";
    break;
  }
  case Opcode::Call: {
    Out += " " + regName(I.Dst) + ", ";
    if (M && I.CalleeId < M->numFunctions())
      Out += M->function(I.CalleeId)->Name;
    else
      Out += "fn" + std::to_string(I.CalleeId);
    Out += "(";
    for (size_t A = 0; A < I.Args.size(); ++A) {
      if (A)
        Out += ", ";
      Out += regName(I.Args[A]);
    }
    Out += ")";
    break;
  }
  case Opcode::Ret:
    if (I.Src0 != NoReg)
      Out += " " + regName(I.Src0);
    break;
  case Opcode::Br:
    Out += " " + Block(I.Target0);
    if (I.SplitJump)
      Out += " [split]";
    break;
  case Opcode::CondBr:
    Out += " " + regName(I.Src0) + ", " + Block(I.Target0) + ", " +
           Block(I.Target1);
    break;
  case Opcode::Probe: {
    Out += " {";
    bool First = true;
    for (const ProbeOp &P : I.ProbePayload->Ops) {
      if (!First)
        Out += "; ";
      First = false;
      Out += probeOpName(P.Kind);
      Out += " s" + std::to_string(P.Slot) + "," + std::to_string(P.C0) + "," +
             std::to_string(P.C1);
    }
    Out += "}";
    break;
  }
  default:
    // Binary operators.
    Out += " " + regName(I.Dst) + ", " + regName(I.Src0) + ", " +
           regName(I.Src1);
    break;
  }
  return Out;
}

std::string olpp::printFunction(const Function &F, const Module *M) {
  std::string Out =
      "func " + F.Name + "(" + std::to_string(F.NumParams) + " params, " +
      std::to_string(F.NumRegs) + " regs)\n";
  for (const auto &BB : F.blocks()) {
    Out += "^" + std::to_string(BB->Id) + " " + BB->Name + ":\n";
    for (const Instruction &I : BB->Instrs)
      Out += "  " + printInstruction(I, M) + "\n";
  }
  return Out;
}

std::string olpp::printModule(const Module &M) {
  std::string Out;
  for (size_t G = 0; G < M.globals().size(); ++G) {
    const GlobalVar &GV = M.globals()[G];
    Out += "global @" + std::to_string(G) + " " + GV.Name;
    if (GV.Size != 1)
      Out += "[" + std::to_string(GV.Size) + "]";
    Out += "\n";
  }
  for (const auto &F : M.functions())
    Out += "\n" + printFunction(*F, &M);
  return Out;
}
