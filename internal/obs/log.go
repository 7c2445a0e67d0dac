package obs

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity.
type Level int32

// Levels, in increasing verbosity. The default level is LevelInfo:
// operational messages print, per-retry noise (LevelDebug) does not —
// bench output stays clean unless -v is given.
const (
	LevelError Level = iota
	LevelInfo
	LevelDebug
)

func (l Level) String() string {
	switch l {
	case LevelError:
		return "ERROR"
	case LevelInfo:
		return "INFO"
	case LevelDebug:
		return "DEBUG"
	}
	return fmt.Sprintf("LEVEL(%d)", int32(l))
}

var (
	logLevel atomic.Int32 // holds a Level; default LevelInfo

	logMu  sync.Mutex
	logOut io.Writer = os.Stderr
)

func init() { logLevel.Store(int32(LevelInfo)) }

// SetLogLevel sets the global log threshold; messages above it are
// dropped before formatting.
func SetLogLevel(l Level) { logLevel.Store(int32(l)) }

// LogLevel returns the current threshold.
func LogLevel() Level { return Level(logLevel.Load()) }

// Verbose is the conventional -v mapping: true selects LevelDebug,
// false the quiet LevelInfo default.
func Verbose(v bool) {
	if v {
		SetLogLevel(LevelDebug)
	} else {
		SetLogLevel(LevelInfo)
	}
}

// logf is the single formatting path: timestamp, level, subsystem tag.
func logf(l Level, sub, format string, args ...any) {
	if l > LogLevel() {
		return
	}
	msg := fmt.Sprintf(format, args...)
	line := fmt.Sprintf("%s %-5s [%s] %s\n",
		time.Now().Format("15:04:05.000"), l, sub, msg)
	logMu.Lock()
	io.WriteString(logOut, line)
	logMu.Unlock()
}

// Errorf logs at LevelError under a subsystem tag ("wire", "brokerd", ...).
func Errorf(sub, format string, args ...any) { logf(LevelError, sub, format, args...) }

// Infof logs at LevelInfo.
func Infof(sub, format string, args ...any) { logf(LevelInfo, sub, format, args...) }

// Debugf logs at LevelDebug — the level retry/redial noise belongs at.
func Debugf(sub, format string, args ...any) { logf(LevelDebug, sub, format, args...) }
