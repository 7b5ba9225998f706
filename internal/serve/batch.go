package serve

import (
	"context"

	"dragonvar/internal/nn"
	"dragonvar/internal/telemetry"
)

// forecastReq is one caller waiting for a prediction. reply is buffered
// (capacity 1) so the batch loop never blocks on a caller that gave up.
type forecastReq struct {
	steps [][]float64
	reply chan float64
}

// batcher answers forecast requests from one loop: it blocks for a
// request, takes every request already queued behind it, predicts them
// all in one nn.PredictAll pass, and fans the results back out. It never
// waits for more requests, so a lone request is answered at once, and a
// batch larger than one forms only from requests that queued while the
// previous model call ran. Inference is read-only on the trained model,
// so one batched call is equivalent to n sequential Predicts — batching
// changes latency and throughput, never values.
type batcher struct {
	model         *nn.Forecaster
	in            chan forecastReq
	stopped       chan struct{} // closed by the loop on exit
	beforePredict func(n int)   // Config.beforePredict

	batches   *telemetry.Counter
	batchSize *telemetry.Histogram
}

// newBatcher starts the loop with a queue of the given depth.
func newBatcher(model *nn.Forecaster, queue int, beforePredict func(n int)) *batcher {
	b := &batcher{
		model:         model,
		in:            make(chan forecastReq, queue),
		stopped:       make(chan struct{}),
		beforePredict: beforePredict,
		batches:       telemetry.C(telemetry.MServeBatches),
		batchSize:     telemetry.H(telemetry.MServeBatchSize, telemetry.CountBuckets),
	}
	go b.loop()
	return b
}

// predict submits one window and waits for its batch to complete. The
// context bounds the wait; an abandoned request still gets its slot in the
// batch but nobody reads the buffered reply. Callers hold the batcher's
// model generation (Server.acquire), so stop never runs under them.
func (b *batcher) predict(ctx context.Context, steps [][]float64) (float64, error) {
	req := forecastReq{steps: steps, reply: make(chan float64, 1)}
	select {
	case b.in <- req:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	select {
	case v := <-req.reply:
		return v, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// stop shuts the intake down and waits for the loop to flush accepted
// requests. Call only once no handler holds the batcher's generation:
// a predict after stop would send on a closed channel.
func (b *batcher) stop() {
	close(b.in)
	<-b.stopped
}

// loop is the batching goroutine.
func (b *batcher) loop() {
	defer close(b.stopped)
	for {
		first, ok := <-b.in
		if !ok {
			return
		}
		// the loop is the only receiver, so a non-empty queue (closed or
		// not) yields a request without blocking
		batch := []forecastReq{first}
		for len(b.in) > 0 {
			batch = append(batch, <-b.in)
		}

		samples := make([]nn.Sample, len(batch))
		for i, r := range batch {
			samples[i] = nn.Sample{Steps: r.steps}
		}
		if b.beforePredict != nil {
			b.beforePredict(len(batch))
		}
		preds := b.model.PredictAll(samples)
		for i, r := range batch {
			r.reply <- preds[i] // buffered; never blocks
		}
		b.batches.Inc()
		b.batchSize.Observe(float64(len(batch)))
	}
}
