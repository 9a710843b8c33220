package server

import (
	"errors"
	"testing"
)

// A config RunLoad cannot run is an error returned before any stream is
// built or connection dialed, not a panic in the generator or a silently
// different run.
func TestRunLoadRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  LoadConfig
	}{
		{"zero key space", LoadConfig{TotalOps: 10, KeySpace: 0}},
		{"negative key space", LoadConfig{TotalOps: 10, KeySpace: -5}},
		{"zero key space in a family", LoadConfig{TotalOps: 10, KeySpace: 0, Family: "twitter"}},
		{"negative ops", LoadConfig{TotalOps: -1, KeySpace: 64}},
		{"negative rate", LoadConfig{TotalOps: 10, KeySpace: 64, Rate: -5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.DialFunc = func(int) (LoadConn, error) {
				t.Error("RunLoad dialed with a bad config")
				return nil, errors.New("no server")
			}
			if _, err := RunLoad(tc.cfg); err == nil {
				t.Fatal("RunLoad accepted a bad config")
			}
		})
	}
}
