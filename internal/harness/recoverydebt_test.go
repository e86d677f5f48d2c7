package harness

import (
	"strings"
	"testing"

	"smdb/internal/recovery"
)

// TestRunRecoveryDebt runs E24 end-to-end: every real protocol must clear
// the estimator-accuracy gate (RunRecoveryDebt fails past
// recoveryDebtMaxRatio), the attribution-coverage gate, the
// debt-collapses-after-recovery gate, and the double-run determinism gate —
// all enforced inside RunRecoveryDebt itself.
func TestRunRecoveryDebt(t *testing.T) {
	res, err := RunRecoveryDebt(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Points), len(recovery.Protocols()); got != want {
		t.Fatalf("census has %d points, want %d", got, want)
	}
	for _, p := range res.Points {
		if p.DebtRecords == 0 {
			t.Errorf("%v: no debt accumulated before the judged crash", p.Protocol)
		}
		if p.Coverage < recoveryDebtMinCoverage {
			t.Errorf("%v: coverage %.3f below gate %.2f", p.Protocol, p.Coverage, recoveryDebtMinCoverage)
		}
		if p.Ratio > recoveryDebtMaxRatio {
			t.Errorf("%v: estimate ratio %.2f past gate %.1f", p.Protocol, p.Ratio, recoveryDebtMaxRatio)
		}
		if p.ResidualDebt != 0 {
			t.Errorf("%v: residual debt %d after recovery", p.Protocol, p.ResidualDebt)
		}
		if p.ResumedDebt == 0 {
			t.Errorf("%v: debt did not re-accumulate after recovery", p.Protocol)
		}
		if want := int64(recoveryDebtCycles); p.Recoveries != want {
			t.Errorf("%v: recoveries = %d, want %d", p.Protocol, p.Recoveries, want)
		}
	}
	table := res.Table()
	for _, want := range []string{"protocol", "debt-recs", "coverage", "est", "measured", "ratio", "mttr-ewma"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}
