package telemetry

import (
	"fmt"
	"math"
	"sync"
)

// Res is an interned blame resource: the concrete resource a stage segment
// was spent on ("nand.ch2.w5", "nvme.sq1", "pcie.dma"). Zero means "the
// stage itself" and renders as the empty name. Layers intern their labels
// once, at construction, so a mark stores two bytes and compares integers;
// names come back only where data leaves the recorder (blame rows, report
// spans). IDs depend on the order stacks are built in, which varies with
// worker count, so nothing may order or print by ID.
type Res uint16

// resTable is the process-wide intern table, shared by every simulated
// system and every worker. It only grows.
var resTable = struct {
	sync.Mutex
	names []string
	ids   map[string]Res
}{names: []string{""}, ids: map[string]Res{"": 0}}

// Intern returns the resource ID of name, adding it on first use. The
// empty name is 0. Intern takes a lock: call it when a layer is built,
// never per request.
func Intern(name string) Res {
	resTable.Lock()
	defer resTable.Unlock()
	if id, ok := resTable.ids[name]; ok {
		return id
	}
	if len(resTable.names) > math.MaxUint16 {
		panic(fmt.Sprintf("telemetry: more than %d blame resources interned", math.MaxUint16))
	}
	id := Res(len(resTable.names))
	resTable.names = append(resTable.names, name)
	resTable.ids[name] = id
	return id
}

// String returns the name r was interned from.
func (r Res) String() string {
	resTable.Lock()
	defer resTable.Unlock()
	if int(r) < len(resTable.names) {
		return resTable.names[r]
	}
	return fmt.Sprintf("res%d", uint16(r))
}

// Synthetic blame resources: labels for time a request spent outside any
// concrete device resource. The admission label tags open-loop pre-queue
// wait; hedge and failover tag the dispatch gaps the cluster synthesizes
// for secondary legs (see cluster.Replay).
var (
	ResAdmission = Intern("admission")
	ResHedge     = Intern("hedge")
	ResFailover  = Intern("failover")
)
