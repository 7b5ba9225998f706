package serve

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"dragonvar/internal/advisor"
	"dragonvar/internal/modelstore"
	"dragonvar/internal/nn"
)

// fuzzEndpoints are the POST endpoints that decode a request body.
var fuzzEndpoints = []string{"/v1/forecast", "/v1/deviation", "/v1/advisor/blame"}

// FuzzServeRequest posts arbitrary bytes to the forecast, deviation and
// blame handlers of a server with every model loaded. No body may panic a
// handler, and a 200 must answer exactly the bodies that decode and pass
// that handler's checks: a window of the model's shape, a feature vector of
// the model's width, every value finite, and a finite forecast for the
// window.
func FuzzServeRequest(f *testing.F) {
	for _, seed := range []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"window": [[1,2,3],[1,2,3],[1,2,3],[1,2,3],[0.5,0,4]]}`},
		{0, `{"window": [[1,2,3]]}`},
		{0, `{"window": [[1,2,3],[1,2,3],[1,2,3],[1,2,3],[1,2,1e400]]}`},
		{1, `{"features": [0.3, 0.5, 0.9]}`},
		{0, `{"window": [[1e300,-1e300,1e300],[1,2,3],[1,2,3],[1,2,3],[1e308,1e308,1e308]]}`},
		{1, `{"features": [1]}`},
		{1, `{"features": [1e308, -1e308, 1e308]}`},
		{2, `{"running_users": ["u1", "u7"]}`},
		{2, `{"running_users": null}`},
		{0, `{`},
		{1, `null`},
		{2, `[]`},
		{0, `{"window": [[0,0,0],[0,0,0],[0,0,0],[0,0,0],[1e308,0,1e308]]}`}, // finite window, infinite forecast
	} {
		f.Add(seed.endpoint, []byte(seed.body))
	}
	fc := trainForecaster(f)
	srv, _ := newTestServer(f, Config{
		Forecaster: fc,
		GBR:        trainGBR(f),
		GBRMeta:    modelstore.Meta{FeatureNames: []string{"f0", "f1", "f2"}},
		Adv:        fuzzAdvisor(f, "u1", "u3"),
	})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if ok, valid := rec.Code == http.StatusOK, validBody(fc, path, body); ok != valid {
			t.Fatalf("%s answered %d to a body that is valid=%v, %q: %s", path, rec.Code, valid, body, rec.Body.Bytes())
		}
		var reply map[string]any
		if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &reply) != nil {
			t.Fatalf("%s answered 200 with an undecodable reply %q to %q", path, rec.Body.Bytes(), body)
		}
	})
}

// validBody decodes body as the handler for path does and applies its
// checks against the fuzz server's models.
func validBody(fc *nn.Forecaster, path string, body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	switch path {
	case "/v1/forecast":
		var req forecastRequest
		if dec.Decode(&req) != nil || len(req.Window) != testM {
			return false
		}
		for _, row := range req.Window {
			if len(row) != testH || !finite(row) {
				return false
			}
		}
		return finite([]float64{fc.Predict(req.Window)})
	case "/v1/deviation":
		var req deviationRequest
		return dec.Decode(&req) == nil && len(req.Features) == 3 && finite(req.Features)
	default:
		var req blameRequest
		return dec.Decode(&req) == nil
	}
}

func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// fuzzAdvisor builds an advisor blaming the given users through its gob
// decoder, which reads the fields by name.
func fuzzAdvisor(t testing.TB, users ...string) *advisor.Advisor {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct{ Blamed []string }{users}); err != nil {
		t.Fatal(err)
	}
	a := new(advisor.Advisor)
	if err := a.GobDecode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	return a
}
