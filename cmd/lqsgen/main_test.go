package main

import (
	"bytes"
	"strings"
	"testing"
)

// q6Explain is `lqsgen -workload tpch -explain Q6` as printed before floats
// moved into the int payload word of a value: the pushed predicate's float
// literals and every estimate must print byte for byte the same.
const q6Explain = `TPC-H Q6:
[0] Hash Aggregate (Aggregate)  est=1.0
  [1] Compute Scalar  est=1774.5
    [2] Table Scan lineitem  est=1774.5 pushed=((lineitem.l_shipdate >= 365) AND (lineitem.l_shipdate < 730) AND (lineitem.l_discount >= 0.02) AND (lineitem.l_discount <= 0.06) AND (lineitem.l_quantity < 24))

  node 0   est_rows=1.0        cpu/row=372743   io/row=0        rebinds=1
  node 1   est_rows=1774.5     cpu/row=160      io/row=0        rebinds=1
  node 2   est_rows=1774.5     cpu/row=7101     io/row=6424     rebinds=1
`

func TestRunExplainQ6(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-workload", "tpch", "-explain", "Q6"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if got := stdout.String(); got != q6Explain {
		t.Fatalf("explain output changed:\n%s\nwant:\n%s", got, q6Explain)
	}
}

func TestRunInventory(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-workload", "tpch"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "workload TPC-H: ") || !strings.Contains(out, "  lineitem ") || !strings.Contains(out, "\n  Q6\n") {
		t.Fatalf("inventory lacks its header, lineitem or Q6:\n%s", out)
	}
}

func TestRunRejectsUnknownInput(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-explain", "Q999"}} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil || stdout.Len() != 0 {
			t.Fatalf("run(%q): err = %v, stdout %q", args, err, stdout.String())
		}
	}
}
