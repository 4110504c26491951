// lotec-gdo runs the global directory of objects (GDO) service of a TCP
// deployment. Start it before the data nodes:
//
//	lotec-gdo -addr :7100 -nodes host1:7101,host2:7102
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"lotec"
)

func main() {
	addr := flag.String("addr", ":7100", "listen address of the directory")
	nodes := flag.String("nodes", "", "comma-separated data node addresses, in node-ID order")
	shards := flag.Int("shards", 1, "directory partitions; every node must be started with the same value. One host serializes all its shards under one mutex: shards partition directory state and the deadlock search, not CPU")
	faultPlan := flag.String("fault-plan", "", `inject deterministic network faults: a preset (drop, delay, dup, reorder, chaos) or clause list like "drop(p=0.1);delay(p=0.2,d=1ms)"`)
	faultSeed := flag.Uint64("fault-seed", 1, "seed driving the fault plan's random draws")
	flag.Parse()

	nodeAddrs := strings.Split(*nodes, ",")
	if *nodes == "" || len(nodeAddrs) == 0 {
		fmt.Fprintln(os.Stderr, "lotec-gdo: -nodes is required")
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "lotec-gdo: -shards must be at least 1")
		os.Exit(2)
	}
	topo := lotec.Topology{NodeAddrs: nodeAddrs, GDOAddr: *addr, DirectoryShards: *shards}
	g, err := lotec.StartGDOWith(lotec.GDOOptions{Topology: topo, FaultPlan: *faultPlan, FaultSeed: *faultSeed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lotec-gdo:", err)
		os.Exit(1)
	}
	fmt.Printf("GDO serving %d-node deployment at %s (%d shard(s))\n", len(nodeAddrs), g.Addr(), *shards)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	_ = g.Close()
}
