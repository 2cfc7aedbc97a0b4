package obs

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Leveled key=value logging. The format is one line per event:
//
//	2026-08-05T12:00:00Z level=info msg="trained" threshold=0.124 f1=0.93
//
// machine-greppable without a parsing dependency. The package-level
// logger writes to stderr at Info; prodigyd's -log-level flag adjusts it.

// Level orders log severities; lower is more severe.
type Level int32

const (
	LevelError Level = iota
	LevelWarn
	LevelInfo
	LevelDebug
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelError:
		return "error"
	case LevelWarn:
		return "warn"
	case LevelInfo:
		return "info"
	case LevelDebug:
		return "debug"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// ParseLevel converts a flag value ("error", "warn", "info", "debug") to
// a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "error":
		return LevelError, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "info":
		return LevelInfo, nil
	case "debug":
		return LevelDebug, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (want error, warn, info or debug)", s)
}

// logLines counts emitted lines by level, so a noisy component is visible
// on /metrics before anyone reads the logs.
var logLines = Default.NewCounterVec("log_lines_total", "Log lines emitted, by level.", "level")

// logDropped counts lines suppressed by the rate limiter, so sampling is
// itself observable: a large value means something below Error is firing
// per-row and being (correctly) silenced.
var logDropped = Default.NewCounter("log_dropped_total",
	"Log lines dropped by the token-bucket rate limiter.")

// Logger is a leveled key=value logger. Safe for concurrent use.
type Logger struct {
	level atomic.Int32
	mu    sync.Mutex
	out   io.Writer
	// limiter, when set, samples lines below Error severity: a line only
	// writes if the bucket grants a token; denied lines still count in
	// log_dropped_total. Error lines always pass — rate limiting must
	// never eat the line that explains an outage.
	limiter atomic.Pointer[TokenBucket]
	// now is stubbed in tests for deterministic timestamps.
	now func() time.Time
}

// NewLogger returns a logger writing lines at or above lvl to out.
func NewLogger(out io.Writer, lvl Level) *Logger {
	l := &Logger{out: out, now: time.Now}
	l.level.Store(int32(lvl))
	return l
}

// SetLevel adjusts the minimum emitted level.
func (l *Logger) SetLevel(lvl Level) { l.level.Store(int32(lvl)) }

// SetRateLimit installs a token-bucket sampler over Warn and below:
// lines beyond rate/sec (burst capacity `burst`) are dropped and counted
// in log_dropped_total. Error lines are never limited; rate<=0 with
// burst 0 drops every non-error line.
func (l *Logger) SetRateLimit(rate, burst float64) {
	l.limiter.Store(NewTokenBucket(rate, burst))
}

// Enabled reports whether lvl would be emitted.
func (l *Logger) Enabled(lvl Level) bool { return int32(lvl) <= l.level.Load() }

// Error logs at error level. kv is alternating key, value pairs.
func (l *Logger) Error(msg string, kv ...interface{}) { l.log(LevelError, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...interface{}) { l.log(LevelWarn, msg, kv) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...interface{}) { l.log(LevelInfo, msg, kv) }

// Debug logs at debug level.
func (l *Logger) Debug(msg string, kv ...interface{}) { l.log(LevelDebug, msg, kv) }

func (l *Logger) log(lvl Level, msg string, kv []interface{}) {
	if !l.Enabled(lvl) {
		return
	}
	if lvl > LevelError {
		if b := l.limiter.Load(); b != nil && !b.Allow() {
			logDropped.Inc()
			return
		}
	}
	logLines.With(lvl.String()).Inc()
	var b strings.Builder
	b.WriteString(l.now().UTC().Format(time.RFC3339))
	b.WriteString(" level=")
	b.WriteString(lvl.String())
	b.WriteString(" msg=")
	b.WriteString(valueString(msg))
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		b.WriteString(keyString(kv[i]))
		b.WriteByte('=')
		b.WriteString(valueString(kv[i+1]))
	}
	if len(kv)%2 == 1 {
		b.WriteString(" !MISSING=")
		b.WriteString(valueString(kv[len(kv)-1]))
	}
	b.WriteByte('\n')
	l.mu.Lock()
	_, _ = io.WriteString(l.out, b.String())
	l.mu.Unlock()
}

func keyString(k interface{}) string {
	s := fmt.Sprintf("%v", k)
	if s == "" {
		return "!EMPTYKEY"
	}
	if strings.ContainsAny(s, " =\"\n") {
		return strconv.Quote(s)
	}
	return s
}

func valueString(v interface{}) string {
	var s string
	switch t := v.(type) {
	case string:
		s = t
	case error:
		s = t.Error()
	case fmt.Stringer:
		s = t.String()
	case float64:
		return strconv.FormatFloat(t, 'g', 6, 64)
	case float32:
		return strconv.FormatFloat(float64(t), 'g', 6, 32)
	default:
		s = fmt.Sprintf("%v", t)
	}
	if s == "" || strings.ContainsAny(s, " =\"\n") {
		return strconv.Quote(s)
	}
	return s
}

// Log is the process-wide logger (stderr, Info).
var Log = NewLogger(os.Stderr, LevelInfo)

// SetLogLevel adjusts the process-wide logger.
func SetLogLevel(lvl Level) { Log.SetLevel(lvl) }

// Error logs to the process-wide logger.
func Error(msg string, kv ...interface{}) { Log.Error(msg, kv...) }

// Warn logs to the process-wide logger.
func Warn(msg string, kv ...interface{}) { Log.Warn(msg, kv...) }

// Info logs to the process-wide logger.
func Info(msg string, kv ...interface{}) { Log.Info(msg, kv...) }

// Debug logs to the process-wide logger.
func Debug(msg string, kv ...interface{}) { Log.Debug(msg, kv...) }
