package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"dragonvar/internal/core"
)

// TestForecastFiguresGolden pins the forecasting figures on the package's
// shared campaign: the first 8 bytes of the SHA-256 of the text of Figures
// 8, 10, 11 and 12, of the float bits of every Figure 8 and 10 MAPE (the
// text rounds them to three decimals), and of the float bits of every
// Figure 12 segment's observed and predicted time, must match at 1 and 2
// workers. The Figure 8–11 values were recorded before the forecaster's
// kernel and the forecasting grid's worker pool were restructured, the
// Figure 12 values before the long run's placement search was shared with
// the campaign's; never regenerate them to make a change pass.
func TestForecastFiguresGolden(t *testing.T) {
	want := map[string]string{
		"fig8":       "abcf5819aa802ba9",
		"fig10":      "ecf8ea28d3568a21",
		"fig11":      "65f1352d47bd0456",
		"fig8 MAPE":  "e34d454bbda8de95",
		"fig10 MAPE": "730719c431c52cfa",
		"fig12":      "a70b56681a16763e",
		"fig12 segs": "abe2f5ebb1b89987",
	}
	hash := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:8])
	}
	mapeBits := func(results []core.ForecastResult) []byte {
		var b []byte
		for _, r := range results {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.MAPE))
		}
		return b
	}
	for _, workers := range []int{1, 2} {
		s := *testSuite(t)
		s.Workers = workers
		fig8, r8 := s.Figure8()
		fig10, r10 := s.Figure10()
		fig11, _ := s.Figure11()
		fig12, segs, err := s.Figure12()
		if err != nil {
			t.Fatal(err)
		}
		var segBits []byte
		for _, sg := range segs {
			segBits = binary.LittleEndian.AppendUint64(segBits, math.Float64bits(sg.Observed))
			segBits = binary.LittleEndian.AppendUint64(segBits, math.Float64bits(sg.Predicted))
		}
		got := map[string]string{
			"fig8":       hash([]byte(fig8)),
			"fig10":      hash([]byte(fig10)),
			"fig11":      hash([]byte(fig11)),
			"fig8 MAPE":  hash(mapeBits(r8)),
			"fig10 MAPE": hash(mapeBits(r10)),
			"fig12":      hash([]byte(fig12)),
			"fig12 segs": hash(segBits),
		}
		for name, w := range want {
			if got[name] != w {
				t.Errorf("workers=%d: %s hash = %s, want %s", workers, name, got[name], w)
			}
		}
	}
}
