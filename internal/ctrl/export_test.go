package ctrl

// EvaluateAssign exposes the worker daemon's compute path — rebuild the
// problem from the manifest's (Kind, Instance), evaluate the range — to
// the external catalog test.
var EvaluateAssign = evaluateAssign
