package main

// Example runs the banking example on the deterministic simulator and pins
// its output byte for byte.
func Example() {
	main()
	// Output:
	// overdrawn transfer correctly aborted: transfer 100: insufficient funds
	// balance after aborted transfer (must be 30): 30
	//
	// Protocol     DataBytes      Msgs
	// COTEC           200704       190
	// OTEC             61720       214
	// LOTEC            37192       225
	// RC               49744       309
}
