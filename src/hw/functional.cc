#include "functional.hh"

#include <array>

#include "path/class_path.hh"

namespace ptolemy::hw
{

namespace
{

/// Runaway-loop backstop: far above any real program (the compiler
/// emits tens of static instructions; a batch program retires
/// ~instrs × batchSize dynamic ones).
constexpr std::uint64_t kMaxInstructions = 10'000'000;

} // namespace

FunctionalResult
runFunctional(const isa::Program &prog, const core::DetectorModel &model,
              std::span<const nn::Tensor *const> inputs)
{
    FunctionalResult res;
    res.paths.reserve(inputs.size());
    res.decisions.reserve(inputs.size());

    // Architectural state. Registers a real Ptolemy core would hold —
    // the functional interpreter only needs them for control flow
    // (mov/movr/dec/jne drive the batch countdown loop); the detection
    // macro-ops carry their workload in the instruction metadata and
    // are realized against the model below.
    std::array<std::uint64_t, isa::kNumRegisters> regs{};

    // Detection scratch, reused across the batch. The reference
    // full-sort selection is deliberately a *different* code path than
    // the max/pivot prefix selection DetectorSession uses — both pick
    // the identical ranked prefix, so agreement here is a genuine
    // cross-check rather than the same code run twice.
    path::ExtractionWorkspace ws;
    ws.referenceSort = true;
    nn::Network::Record rec;
    std::vector<double> feat;

    std::size_t next_input = 0;
    std::size_t pc = 0;
    while (pc < prog.size() && res.instructionsExecuted < kMaxInstructions) {
        const isa::Instruction &ins = prog.instruction(pc);
        ++res.instructionsExecuted;
        switch (ins.op) {
        case isa::Opcode::Mov:
            regs[ins.r0] = ins.imm;
            ++pc;
            break;
        case isa::Opcode::MovR:
            regs[ins.r0] = regs[ins.r1];
            ++pc;
            break;
        case isa::Opcode::Dec:
            if (regs[ins.r0] > 0)
                --regs[ins.r0];
            ++pc;
            break;
        case isa::Opcode::Jne:
            pc = regs[ins.r0] != 0 ? ins.imm : pc + 1;
            break;
        case isa::Opcode::Halt:
            res.halted = true;
            return res;
        case isa::Opcode::Cls: {
            // cls retires one detection: the inference + path
            // construction instructions before it produced the recorded
            // activations and the selected path; realize them now
            // against the model and score exactly the way
            // DetectorSession::detect does.
            if (next_input >= inputs.size())
                return res; // batch program wider than the input set
            model.network().inferInto(*inputs[next_input++], rec);
            core::Decision d;
            d.predictedClass = rec.predictedClass();
            BitVector path;
            model.extractor().extractInto(rec, ws, path);
            path::computeSimilarityInto(
                path, model.classPaths().classPath(d.predictedClass),
                model.extractor().layout(), d.features);
            d.features.toVectorInto(feat);
            d.score = model.forest().predictProb(feat);
            d.adversarial = model.isAdversarial(d.score);
            regs[ins.r2] = d.adversarial ? 1 : 0;
            res.paths.push_back(std::move(path));
            res.decisions.push_back(std::move(d));
            ++pc;
            break;
        }
        default:
            // Detection macro-ops (inf/infsp/csps, sort/acum/genmasks,
            // findneuron/findrf): their combined effect is realized at
            // the owning cls above; architecturally they deposit a
            // result token in their destination register.
            if (const int n = isa::opcodeNumRegs(ins.op); n > 0) {
                const std::uint8_t dst = n >= 4   ? ins.r3
                                         : n == 3 ? ins.r2
                                         : n == 2 ? ins.r1
                                                  : ins.r0;
                regs[dst] = 0;
            }
            ++pc;
            break;
        }
    }
    if (pc >= prog.size())
        res.halted = true; // fell off the end — treat as orderly stop
    return res;
}

} // namespace ptolemy::hw
