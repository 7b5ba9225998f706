package dataset

import "dragonvar/internal/framelog"

// Pin the durable wire types' gob ids — stream WAL, sealed segments,
// campaign caches — before any runtime gob activity (see framelog.PinGob).
func init() { framelog.PinGob(streamHeader{}, &Run{}, Segment{}, &Campaign{}) }
