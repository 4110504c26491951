// lotec-node runs one LOTEC data node of a TCP deployment, serving the
// built-in demo bank schema (an Account class with deposit/withdraw/peek
// and a Teller whose transfer nests sub-transactions). Applications embed
// the library directly to serve their own classes; this binary exists so a
// real multi-process cluster can be stood up and driven from the shell.
//
// Serve:
//
//	lotec-node -id 1 -addr-index 0 -gdo host0:7100 -nodes host1:7101,host2:7102
//
// Drive (client mode):
//
//	lotec-node -call host1:7101 -node 1 -obj 1 -method deposit -amount 25
//
// Start order: each node creates the demo accounts it owns when it starts
// (round-robin over the nodes), so start the directory and every node before
// driving any of them. A root sent to another node before an account's owner
// is up fails after about 127 ms with a retries-exhausted error wrapping
// "object not yet registered with the directory".
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"lotec"
	"lotec/internal/workload"
)

func i64(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

func dec64(b []byte) int64 {
	if len(b) < 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// demoSchema is the bank schema every lotec-node process serves.
func demoSchema() (*lotec.Class, error) {
	return lotec.NewClass(1, "Account").
		Attr("balance", 8).
		Attr("statement", 8192).
		Method(lotec.MethodSpec{Name: "deposit", Writes: []string{"balance"}}).
		Method(lotec.MethodSpec{Name: "withdraw", Writes: []string{"balance"}}).
		Method(lotec.MethodSpec{Name: "peek", Reads: []string{"balance"}}).
		Build()
}

func registerDemo(n *lotec.Node, cls *lotec.Class) error {
	if err := n.AddClass(cls); err != nil {
		return err
	}
	if err := n.OnMethod(cls, "deposit", func(ctx *lotec.Ctx) error {
		cur, err := ctx.Read("balance")
		if err != nil {
			return err
		}
		next := dec64(cur) + dec64(ctx.Arg())
		if err := ctx.Write("balance", i64(next)); err != nil {
			return err
		}
		ctx.SetResult(i64(next))
		return nil
	}); err != nil {
		return err
	}
	if err := n.OnMethod(cls, "withdraw", func(ctx *lotec.Ctx) error {
		cur, err := ctx.Read("balance")
		if err != nil {
			return err
		}
		if dec64(cur) < dec64(ctx.Arg()) {
			return fmt.Errorf("insufficient funds: %d < %d", dec64(cur), dec64(ctx.Arg()))
		}
		next := dec64(cur) - dec64(ctx.Arg())
		if err := ctx.Write("balance", i64(next)); err != nil {
			return err
		}
		ctx.SetResult(i64(next))
		return nil
	}); err != nil {
		return err
	}
	return n.OnMethod(cls, "peek", func(ctx *lotec.Ctx) error {
		cur, err := ctx.Read("balance")
		if err != nil {
			return err
		}
		ctx.SetResult(cur)
		return nil
	})
}

func main() {
	id := flag.Int("id", 0, "this node's ID (1-based)")
	gdoAddr := flag.String("gdo", "", "GDO directory address")
	nodes := flag.String("nodes", "", "comma-separated data node addresses, in node-ID order")
	protocol := flag.String("protocol", "LOTEC", "consistency protocol: COTEC, OTEC, LOTEC or RC")
	objects := flag.Int("objects", 4, "demo accounts to create (owned round-robin)")
	shards := flag.Int("shards", 1, "directory partitions; must match the lotec-gdo process")
	delta := flag.String("delta", "on", "sub-page delta transfers: on (default) or off; must match cluster-wide")
	faultPlan := flag.String("fault-plan", "", `inject deterministic network faults: a preset (drop, delay, dup, reorder, chaos) or clause list like "drop(p=0.1);delay(p=0.2,d=1ms)"`)
	faultSeed := flag.Uint64("fault-seed", 1, "seed driving the fault plan's random draws")

	call := flag.String("call", "", "client mode: node address to dial; start the directory and every node first, since a root on an object whose owner is not up fails after about 127 ms")
	node := flag.Int("node", 1, "client mode: node ID at -call")
	obj := flag.Int64("obj", 1, "client mode: object ID")
	method := flag.String("method", "peek", "client mode: method to invoke")
	amount := flag.Int64("amount", 0, "client mode: amount argument")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON startup record (workload name, spec hash, seeds) instead of the plain banner")
	flag.Parse()

	if *delta != "on" && *delta != "off" {
		fmt.Fprintln(os.Stderr, "lotec-node: -delta must be on or off")
		os.Exit(2)
	}
	if err := run(*id, *gdoAddr, *nodes, *protocol, *objects, *shards, *delta == "off", *faultPlan, *faultSeed, *call, *node, *obj, *method, *amount, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "lotec-node:", err)
		os.Exit(1)
	}
}

// nodeReport is lotec-node's -json startup record: enough to identify what
// this process serves and reproduce its behaviour (the demo schema is the
// binary's only workload; the fault seed is its only random draw).
type nodeReport struct {
	Provenance workload.Provenance `json:"provenance"`
	Node       int                 `json:"node"`
	Addr       string              `json:"addr"`
	Protocol   string              `json:"protocol"`
	Objects    int                 `json:"objects"`
}

func run(id int, gdoAddr, nodes, protocol string, objects, shards int, deltaOff bool, faultPlan string, faultSeed uint64, call string, nodeID int, obj int64, method string, amount int64, jsonOut bool) error {
	if call != "" {
		client, err := lotec.Dial(call, lotec.NodeID(nodeID))
		if err != nil {
			return err
		}
		defer client.Close()
		out, err := client.Run(lotec.ObjectID(obj), method, i64(amount))
		if err != nil {
			return err
		}
		fmt.Printf("%s(O%d, %d) = %d\n", method, obj, amount, dec64(out))
		return nil
	}

	if id < 1 || gdoAddr == "" || nodes == "" {
		return fmt.Errorf("serving requires -id, -gdo and -nodes (or use -call for client mode)")
	}
	p, err := lotec.ProtocolByName(protocol)
	if err != nil {
		return err
	}
	nodeAddrs := strings.Split(nodes, ",")
	topo := lotec.Topology{NodeAddrs: nodeAddrs, GDOAddr: gdoAddr, DirectoryShards: shards}
	n, err := lotec.NewNode(lotec.NodeOptions{
		Topology:  topo,
		Self:      lotec.NodeID(id),
		Protocol:  p,
		DeltaOff:  deltaOff,
		FaultPlan: faultPlan,
		FaultSeed: faultSeed,
	})
	if err != nil {
		return err
	}
	cls, err := demoSchema()
	if err != nil {
		return err
	}
	if err := registerDemo(n, cls); err != nil {
		return err
	}
	if err := n.Start(); err != nil {
		return err
	}
	defer n.Close()

	// Demo accounts O1..O<objects>, owned round-robin. Every node registers
	// all of them; each registers its own with the GDO.
	for o := 1; o <= objects; o++ {
		owner := lotec.NodeID((o-1)%len(nodeAddrs) + 1)
		if err := n.CreateObject(lotec.ObjectID(o), cls.ID, owner); err != nil {
			return fmt.Errorf("create O%d: %w", o, err)
		}
	}
	if jsonOut {
		// The demo bank schema is this binary's whole workload; hashing it
		// as a spec gives replays the same identity check spec files get.
		rep := nodeReport{
			Provenance: workload.Provenance{
				Workload:  "demo-bank",
				SpecHash:  workload.Spec{Name: "demo-bank"}.Hash(),
				FaultSeed: faultSeed,
				FaultPlan: faultPlan,
			},
			Node:     id,
			Addr:     n.Addr(),
			Protocol: p.Name(),
			Objects:  objects,
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		fmt.Println(string(buf))
	} else {
		fmt.Printf("node %d serving %s at %s (%d demo accounts)\n", id, p.Name(), n.Addr(), objects)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return nil
}
