package sweepd

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// bundlePath is where one job's gzip-compressed telemetry bundle lives:
// <dir>/telemetry/<sanitized job ID>.json.gz, beside the record log of
// the store rooted at dir.
func bundlePath(dir, id string) string {
	return filepath.Join(dir, "telemetry", sanitizeJobID(id)+".json.gz")
}

// writeTelemetry persists one job's bundle under the store directory
// dir. Writes go through a temp file + rename so a crash never leaves a
// truncated bundle under the final name.
func writeTelemetry(dir, id string, data []byte) error {
	path := bundlePath(dir, id)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// sanitizeJobID maps a job ID to a safe flat filename (job IDs contain
// slashes and commas: "sweep/003-bm=ABM,rep=1").
func sanitizeJobID(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '-' || r == '_' || r == '.' || r == '=':
			return r
		default:
			return '_'
		}
	}, id)
}

// ReadTelemetry loads one job's persisted bundle from the store
// directory dir, decompressed and decoded.
func ReadTelemetry(dir, id string) (*TelemetryBundle, error) {
	data, err := os.ReadFile(bundlePath(dir, id))
	if err != nil {
		return nil, err
	}
	bundle, err := DecodeTelemetry(data)
	if err != nil {
		return nil, fmt.Errorf("sweepd: telemetry for %s: %w", id, err)
	}
	return bundle, nil
}
