// Package spec serialises systems to and from a JSON format consumed
// by the command-line tools (cmd/hsched, cmd/hsim) and the HTTP server
// (internal/httpd). The format mirrors the model: platforms as
// (alpha, delta, beta) triples and transactions as task chains;
// platform references are 1-based in the file (matching the paper's
// Π1 … ΠM notation) and converted to the model's 0-based indices on
// load.
package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"hsched/internal/model"
	"hsched/internal/platform"
)

// ErrInvalid is wrapped into every error a malformed or inconsistent
// document produces — undecodable JSON, dangling platform references,
// model validation failures. Servers test errors.Is(err, ErrInvalid)
// to map spec failures to a 400 (the request is at fault, naming the
// offending field) rather than a 500.
var ErrInvalid = errors.New("invalid system specification")

// PlatformSpec is the JSON form of an abstract platform.
type PlatformSpec struct {
	Name  string  `json:"name,omitempty"`
	Alpha float64 `json:"alpha"`
	Delta float64 `json:"delta"`
	Beta  float64 `json:"beta"`
}

// TaskSpec is the JSON form of a task. Platform is 1-based.
type TaskSpec struct {
	Name     string  `json:"name,omitempty"`
	WCET     float64 `json:"wcet"`
	BCET     float64 `json:"bcet,omitempty"`
	Offset   float64 `json:"offset,omitempty"`
	Jitter   float64 `json:"jitter,omitempty"`
	Priority int     `json:"priority"`
	Platform int     `json:"platform"`
	Blocking float64 `json:"blocking,omitempty"`
}

// TransactionSpec is the JSON form of a transaction.
type TransactionSpec struct {
	Name     string     `json:"name,omitempty"`
	Period   float64    `json:"period"`
	Deadline float64    `json:"deadline,omitempty"`
	Tasks    []TaskSpec `json:"tasks"`
}

// File is the top-level JSON document.
type File struct {
	Platforms    []PlatformSpec    `json:"platforms"`
	Transactions []TransactionSpec `json:"transactions"`
}

// ToTransaction converts one transaction spec to its model form,
// checking its task platform references against a system with
// platforms platforms. A missing deadline defaults to the period. The
// returned errors wrap ErrInvalid and name the offending task.
func (t *TransactionSpec) ToTransaction(platforms int) (model.Transaction, error) {
	tr := t.asWritten()
	if err := ResolveTransaction(&tr, platforms); err != nil {
		return model.Transaction{}, err
	}
	return tr, nil
}

// asWritten copies the spec into model form as written (see Draft).
func (t *TransactionSpec) asWritten() model.Transaction {
	tr := model.Transaction{Name: t.Name, Period: t.Period, Deadline: t.Deadline}
	for _, k := range t.Tasks {
		tr.Tasks = append(tr.Tasks, model.Task{
			Name:     k.Name,
			WCET:     k.WCET,
			BCET:     k.BCET,
			Offset:   k.Offset,
			Jitter:   k.Jitter,
			Priority: k.Priority,
			Platform: k.Platform,
			Blocking: k.Blocking,
		})
	}
	return tr
}

// ResolveTransaction applies the document's rules, in place, to a
// transaction decoded as written: a zero deadline becomes the period,
// and each task's 1-based platform reference, checked against a system
// with platforms platforms, becomes the model's 0-based index. The
// returned errors wrap ErrInvalid and name the offending task.
func ResolveTransaction(tr *model.Transaction, platforms int) error {
	if tr.Deadline == 0 {
		tr.Deadline = tr.Period
	}
	for j := range tr.Tasks {
		k := &tr.Tasks[j]
		if k.Platform < 1 || k.Platform > platforms {
			return fmt.Errorf("%w: task %d: platform %d outside [1, %d]", ErrInvalid, j+1, k.Platform, platforms)
		}
		k.Platform--
	}
	return nil
}

// ToSystem converts the document to a validated model system. A
// missing deadline defaults to the period. Errors wrap ErrInvalid and
// carry enough context to name the offending transaction and field.
func (f *File) ToSystem() (*model.System, error) {
	var ps []platform.Params
	for _, p := range f.Platforms {
		ps = append(ps, platform.Params{Alpha: p.Alpha, Delta: p.Delta, Beta: p.Beta})
	}
	var txs []model.Transaction
	for ti := range f.Transactions {
		txs = append(txs, f.Transactions[ti].asWritten())
	}
	return system(ps, txs)
}

// system builds the validated system of a document's platforms and its
// transactions as written, resolving each transaction in place.
func system(platforms []platform.Params, txs []model.Transaction) (*model.System, error) {
	sys := &model.System{Platforms: platforms, Transactions: txs}
	for ti := range txs {
		if err := ResolveTransaction(&txs[ti], len(platforms)); err != nil {
			return nil, fmt.Errorf("spec: transaction %d: %w", ti+1, err)
		}
	}
	if err := sys.Validate(); err != nil {
		// Validation errors already name the transaction/task/field
		// (model.Validate's messages); the wrap adds the spec origin
		// and the ErrInvalid class servers branch on.
		return nil, fmt.Errorf("spec: %w: %w", ErrInvalid, err)
	}
	return sys, nil
}

// FromSystem converts a model system to its JSON document form.
func FromSystem(sys *model.System) *File {
	f := &File{}
	for m, p := range sys.Platforms {
		f.Platforms = append(f.Platforms, PlatformSpec{
			Name:  fmt.Sprintf("Pi%d", m+1),
			Alpha: p.Alpha, Delta: p.Delta, Beta: p.Beta,
		})
	}
	for _, tr := range sys.Transactions {
		ts := TransactionSpec{Name: tr.Name, Period: tr.Period, Deadline: tr.Deadline}
		for _, k := range tr.Tasks {
			ts.Tasks = append(ts.Tasks, TaskSpec{
				Name: k.Name, WCET: k.WCET, BCET: k.BCET,
				Offset: k.Offset, Jitter: k.Jitter,
				Priority: k.Priority, Platform: k.Platform + 1,
				Blocking: k.Blocking,
			})
		}
		f.Transactions = append(f.Transactions, ts)
	}
	return f
}

// Parse decodes a JSON document into a validated system, in one pass
// with the acceptance rules of json.Unmarshal into a File (see
// Decoder).
func Parse(data []byte) (*model.System, error) {
	d := NewDecoder(data)
	var dr Draft
	_, err := d.Draft(&dr)
	if err == nil {
		err = d.End()
	}
	if err != nil {
		return nil, fmt.Errorf("spec: %w: %w", ErrInvalid, err)
	}
	return dr.System()
}

// Load reads and parses a JSON system file.
func Load(path string) (*model.System, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return Parse(data)
}

// Marshal renders a system as indented JSON.
func Marshal(sys *model.System) ([]byte, error) {
	data, err := json.MarshalIndent(FromSystem(sys), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return append(data, '\n'), nil
}

// Save writes a system as JSON to path.
func Save(sys *model.System, path string) error {
	data, err := Marshal(sys)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
