package main

// Example runs the cad example on the deterministic simulator and pins
// its output byte for byte.
func Example() {
	main()
	// Output:
	// Protocol     DataBytes      Msgs
	// COTEC          1265664       133
	// OTEC            873976       134
	// LOTEC            90640       126
	//
	// LOTEC moves only the transform/metadata pages for the small edits;
	// COTEC re-ships the whole 72 KiB part on every cross-workstation touch.
}
