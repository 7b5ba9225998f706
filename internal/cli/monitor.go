package cli

import (
	"fmt"
	"io"

	"dragonvar/internal/monitor"
	"dragonvar/internal/topology"
)

// Monitor builds the live network-weather monitor of the machine (Cori, or
// the small test machine) for a -monitor flag value: "" attaches none, "-"
// streams the JSONL events to stderr, and any other path is opened with
// open. Every event is tagged source. The returned finish ends the monitor
// and closes the event file, reporting errors to stderr under the program
// name; with no monitor it does nothing.
func Monitor(name, path, source string, small bool, open func(string) (io.WriteCloser, error),
	stderr io.Writer) (*monitor.Monitor, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	events, closer := stderr, io.Closer(nil)
	if path != "-" {
		f, err := open(path)
		if err != nil {
			return nil, nil, err
		}
		events, closer = f, f
	}
	topo := topology.Cori()
	if small {
		topo = topology.Small()
	}
	m, err := monitor.New(monitor.Config{
		NumRouters:      topo.NumRouters(),
		RoutersPerGroup: topo.RoutersPerGroup(),
		HeatmapBin:      3600,
		Events:          events,
		Source:          source,
	})
	if err != nil {
		if closer != nil {
			closer.Close()
		}
		return nil, nil, err
	}
	return m, func() {
		if err := m.Finish(); err != nil {
			fmt.Fprintf(stderr, "%s: monitor: %v\n", name, err)
		}
		if closer != nil {
			if err := closer.Close(); err != nil {
				fmt.Fprintf(stderr, "%s: monitor: %v\n", name, err)
			}
		}
	}, nil
}
