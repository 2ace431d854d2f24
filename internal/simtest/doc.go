// Package simtest provides the run-and-compare helpers shared by the
// simulator's test suites: architecturally warming a machine, and
// asserting two runs agree bit-for-bit on cycles, instructions and
// every statistics counter. The golden, snapshot-fork and differential
// checkpoint suites all build on it, so "two runs are identical" means
// exactly one thing everywhere. It also holds the one test machine two
// suites share: ContendingSystem, the lock-contending 4-core kernel whose
// timing internal/sim pins and over which internal/cpu runs its
// issue-queue oracle. (The canonical machine *builder* lives in the
// production figure harness — figures.BuildSystem — so test support
// never sits in a shipped dependency path.)
package simtest
