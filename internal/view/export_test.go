package view

// BinKeysComputed returns how many BinKey values have been computed (not
// read from a view's cache) in this process.
func BinKeysComputed() uint64 { return binKeysComputed.Load() }
