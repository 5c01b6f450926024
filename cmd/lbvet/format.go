package main

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/linebacker-sim/linebacker/internal/analysis"
)

// writeDiags renders the findings in the selected format. Both formats use
// the module-relative file names the analysis layer produced, so output is
// stable across machines and checkout locations.
func writeDiags(w io.Writer, format string, analyzers []*analysis.Analyzer, diags []analysis.Diagnostic) error {
	if format == "sarif" {
		return writeSARIF(w, analyzers, diags)
	}
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
	return nil
}

// SARIF 2.1.0, the minimum GitHub code scanning accepts: one run, one rule
// per analyzer, one result per finding.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func writeSARIF(w io.Writer, analyzers []*analysis.Analyzer, diags []analysis.Diagnostic) error {
	rules := make([]sarifRule, len(analyzers))
	for i, a := range analyzers {
		rules[i] = sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}}
	}
	results := make([]sarifResult, len(diags))
	for i, d := range diags {
		results[i] = sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: d.Pos.Filename},
				Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}},
		}
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "lbvet", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&log)
}
