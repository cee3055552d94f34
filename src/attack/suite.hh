/**
 * @file
 * The paper's standard five-attack evaluation suite (Sec. VI-A):
 * BIM, CWL2, DeepFool, FGSM, JSMA — covering L0, L2 and L∞ perturbation
 * measures. All five are deterministic (no per-sample randomness), so
 * the batched engine reproduces the historical sample-serial
 * adversarials bit-for-bit.
 */

#ifndef PTOLEMY_ATTACK_SUITE_HH
#define PTOLEMY_ATTACK_SUITE_HH

#include <memory>
#include <vector>

#include "attack/attack.hh"

namespace ptolemy::attack
{

/** Build the five standard attacks with default budgets. */
std::vector<std::unique_ptr<Attack>> makeStandardAttacks(
    AttackBudget budget = {});

} // namespace ptolemy::attack

#endif // PTOLEMY_ATTACK_SUITE_HH
