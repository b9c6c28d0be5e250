package interp

// RunSteps gives the tests RunCounted with a step budget of their choosing.
var RunSteps = runSteps
