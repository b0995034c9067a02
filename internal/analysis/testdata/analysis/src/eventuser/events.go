// Package eventuser is a metricname-analyzer fixture: slog.Logger
// emissions with non-constant or non-lowercase.dotted event names must
// be flagged; literal and constant dotted names must not.
package eventuser

import (
	"context"
	"log/slog"
)

// goodEvent is a constant, so it is as stable as a literal.
const goodEvent = "eventuser.const_event"

// Emit exercises good and bad emissions.
func Emit(ctx context.Context, log *slog.Logger, dyn string) {
	log.Info("eventuser.start")
	log.Debug(goodEvent)
	log.Log(ctx, slog.LevelWarn, "eventuser.level.event")
	log.Warn("BadCaps.Event")          //want:metricname
	log.Error("nodots")                //want:metricname
	log.Info(dyn)                      //want:metricname
	log.Debug("eventuser.sub." + dyn)  //want:metricname
	log.Log(ctx, slog.LevelError, dyn) //want:metricname
	log.Info("eventuser.ok", slog.String("domain", dyn))
}
