package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestDebugServerConcurrentScrape hammers /metrics and the pprof index
// from multiple goroutines while the metrics are being updated — run under
// -race in CI (the obs package is part of the race matrix).
func TestDebugServerConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("scrape_smoke_total", "")
	s, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Add(1)
			}
		}
	}()

	var scrapers sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 8; i++ {
				for _, path := range []string{"/metrics", "/debug/pprof/", "/debug/vars"} {
					resp, err := http.Get("http://" + s.Addr() + path)
					if err != nil {
						errs <- fmt.Errorf("GET %s: %w", path, err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errs <- fmt.Errorf("read %s: %w", path, err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
						return
					}
					if path == "/metrics" && !strings.Contains(string(body), "scrape_smoke_total") {
						errs <- fmt.Errorf("scrape missing counter:\n%.200s", body)
						return
					}
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLoggerConcurrentWriters: interleaved Infof/Debugf/Errorf from many
// goroutines must produce whole lines (the logger holds its mutex across
// the write) — run under -race.
func TestLoggerConcurrentWriters(t *testing.T) {
	var mu sync.Mutex
	var sb strings.Builder
	safe := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	SetLogOutput(safe)
	defer SetLogOutput(nil)
	SetLogLevel(LevelDebug)
	defer SetLogLevel(LevelInfo)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				Infof("test", "writer %d line %d", g, i)
				Debugf("test", "debug %d line %d", g, i)
				Errorf("test", "error %d line %d", g, i)
			}
		}(g)
	}
	wg.Wait()

	mu.Lock()
	out := sb.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 8*50*3 {
		t.Fatalf("lines = %d, want %d", len(lines), 8*50*3)
	}
	for _, line := range lines {
		if !strings.Contains(line, "[test]") {
			t.Fatalf("torn or malformed log line: %q", line)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
