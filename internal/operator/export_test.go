package operator

// ApplyBlockGo is ApplyBlock forced through the portable Go tile kernel,
// the reference the architecture's kernel is compared against.
func (op *Operator) ApplyBlockGo(coeffs [][]float64, out [][]float64, workers int) error {
	return op.applyBlock(coeffs, out, workers, (*Operator).applyRowsBlockBSRGo)
}

// Shared with the external tests on assembled operators (tile_assembled_test.go).
var (
	CheckTileAgainstCSR = checkTileAgainstCSR
	AdversarialFields   = adversarialFields
)
