package core

// ReferenceExhaustive exposes the per-labeling oracle to the external test
// package, which (unlike package core's own tests) may import the schemes.
var ReferenceExhaustive = referenceExhaustive
