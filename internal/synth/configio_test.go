package synth

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 77
	cfg.Attack.Groups = 3
	var buf bytes.Buffer
	if err := SaveConfig(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Errorf("round trip changed config:\n got %+v\nwant %+v", got, cfg)
	}
}

func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	if _, err := LoadConfig(strings.NewReader(`{"Seed":1,"Bogus":2}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestLoadConfigRejectsGarbage(t *testing.T) {
	if _, err := LoadConfig(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestMetadataRoundTrip(t *testing.T) {
	ds := MustGenerate(SmallConfig())
	md := BuildMetadata(ds)
	if md.Attack.Groups != len(ds.Groups) {
		t.Fatalf("metadata groups = %d, want %d", md.Attack.Groups, len(ds.Groups))
	}
	if md.Scale != ds.Table.Scale() {
		t.Errorf("metadata scale mismatch")
	}
	var buf bytes.Buffer
	if err := SaveMetadata(&buf, md); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMetadata(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config != md.Config || got.Scale != md.Scale || got.Attack != md.Attack {
		t.Errorf("metadata round trip changed data")
	}
}

// SaveConfig writes a Config as indented JSON.
func SaveConfig(w io.Writer, cfg Config) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(cfg); err != nil {
		return fmt.Errorf("synth: encode config: %w", err)
	}
	return nil
}

// LoadMetadata reads a sidecar.
func LoadMetadata(r io.Reader) (Metadata, error) {
	var md Metadata
	if err := json.NewDecoder(r).Decode(&md); err != nil {
		return md, fmt.Errorf("synth: decode metadata: %w", err)
	}
	return md, nil
}
