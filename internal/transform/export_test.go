package transform

// SimplifyInstr gives the GVN reference implementation (gvn_ref_test.go) the
// same local simplifier the production pass calls.
var SimplifyInstr = simplifyInstr
