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
// 8, 10 and 11, and of the float bits of every Figure 8 and 10 MAPE (the
// text rounds them to three decimals), must match at 1 and 2 workers. The
// values were recorded before the forecaster's kernel and the forecasting
// grid's worker pool were restructured; never regenerate them to make a
// change pass.
func TestForecastFiguresGolden(t *testing.T) {
	want := map[string]string{
		"fig8":       "abcf5819aa802ba9",
		"fig10":      "ecf8ea28d3568a21",
		"fig11":      "65f1352d47bd0456",
		"fig8 MAPE":  "e34d454bbda8de95",
		"fig10 MAPE": "730719c431c52cfa",
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
		got := map[string]string{
			"fig8":       hash([]byte(fig8)),
			"fig10":      hash([]byte(fig10)),
			"fig11":      hash([]byte(fig11)),
			"fig8 MAPE":  hash(mapeBits(r8)),
			"fig10 MAPE": hash(mapeBits(r10)),
		}
		for name, w := range want {
			if got[name] != w {
				t.Errorf("workers=%d: %s hash = %s, want %s", workers, name, got[name], w)
			}
		}
	}
}
