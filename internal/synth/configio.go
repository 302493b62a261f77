package synth

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/clicktable"
)

// LoadConfig reads a Config from JSON. Unknown fields are rejected so
// typos in experiment configs fail loudly instead of silently running the
// defaults.
func LoadConfig(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("synth: decode config: %w", err)
	}
	return cfg, nil
}

// Metadata is the reproducibility sidecar written next to a generated
// dataset: the exact configuration plus the realized scale and statistics.
type Metadata struct {
	Config Config           `json:"config"`
	Scale  clicktable.Scale `json:"scale"`
	Stats  clicktable.Stats `json:"stats"`
	Attack AttackMetadata   `json:"attack"`
}

// AttackMetadata summarizes the implanted ground truth.
type AttackMetadata struct {
	Groups        int `json:"groups"`
	AbnormalUsers int `json:"abnormal_users"`
	AbnormalItems int `json:"abnormal_items"`
}

// BuildMetadata assembles the sidecar for a generated dataset.
func BuildMetadata(ds *Dataset) Metadata {
	return Metadata{
		Config: ds.Config,
		Scale:  ds.Table.Scale(),
		Stats:  clicktable.ComputeStats(ds.Table),
		Attack: AttackMetadata{
			Groups:        len(ds.Groups),
			AbnormalUsers: len(ds.Truth.Users),
			AbnormalItems: len(ds.Truth.Items),
		},
	}
}

// SaveMetadata writes the sidecar as indented JSON.
func SaveMetadata(w io.Writer, md Metadata) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(md); err != nil {
		return fmt.Errorf("synth: encode metadata: %w", err)
	}
	return nil
}
