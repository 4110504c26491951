package main

// Example runs the quickstart example on the deterministic simulator and pins
// its output byte for byte.
func Example() {
	main()
	// Output:
	// node 1 deposited 25 → balance 25
	// node 2 deposited 25 → balance 50
	// node 3 deposited 25 → balance 75
	// node 4 deposited 25 → balance 100
	// final balance read at node 2: 100
	// consistency traffic for the account: 23 messages, 16384 data bytes, 1708 control bytes
	// total transfer time at gigabit + 1µs software cost: 167.733µs
}
