package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
)

// checkBody checks one 200 body of kind k and returns its row count.
// Sweep bodies must hold one CSV row per cell, and every E17 row's
// correct column must read s/s: each seed's answer matched the ground
// truth.
func checkBody(k *kind, body []byte) (rows int, err error) {
	if k.cells == 0 {
		return 0, checkReport(body)
	}
	recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil {
		return 0, fmt.Errorf("%s: bad CSV: %v", k.name, err)
	}
	if len(recs) != k.cells+1 {
		return 0, fmt.Errorf("%s: %d rows, want %d", k.name, len(recs)-1, k.cells)
	}
	if err := allCorrect(recs[0], recs[1:]); err != nil {
		return 0, fmt.Errorf("%s: %v", k.name, err)
	}
	return k.cells, nil
}

// reportBody is the part of a JSON report the checks read.
type reportBody struct {
	Results []struct {
		ID     string `json:"id"`
		Tables []struct {
			Headers []string   `json:"headers"`
			Rows    [][]string `json:"rows"`
		} `json:"tables"`
	} `json:"results"`
}

func checkReport(body []byte) error {
	var rep reportBody
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("REPORT: bad JSON: %v", err)
	}
	e17 := 0
	for _, r := range rep.Results {
		if r.ID != "E17" {
			continue
		}
		for _, t := range r.Tables {
			e17 += len(t.Rows)
			if err := allCorrect(t.Headers, t.Rows); err != nil {
				return fmt.Errorf("REPORT: %v", err)
			}
		}
	}
	if len(rep.Results) != 3 || e17 == 0 {
		return fmt.Errorf("REPORT: %d results and %d E17 rows, want 3 results and some rows", len(rep.Results), e17)
	}
	return nil
}

func allCorrect(headers []string, rows [][]string) error {
	col := -1
	for i, h := range headers {
		if h == "correct" {
			col = i
		}
	}
	if col < 0 {
		return fmt.Errorf("no correct column in %v", headers)
	}
	for _, row := range rows {
		if col >= len(row) {
			return fmt.Errorf("row %v has no correct column", row)
		}
		good, all, ok := strings.Cut(row[col], "/")
		if !ok || good != all {
			return fmt.Errorf("row %v: correct reads %q", row, row[col])
		}
	}
	return nil
}

// sameRows reports whether two bodies of kind k carry the same rows.
// Sweep CSV must match byte for byte; a report is compared by its
// tables, since each result also carries its compute time.
func sameRows(k *kind, a, b []byte) bool {
	if k.cells > 0 {
		return bytes.Equal(a, b)
	}
	var ra, rb reportBody
	if json.Unmarshal(a, &ra) != nil || json.Unmarshal(b, &rb) != nil {
		return false
	}
	return reflect.DeepEqual(ra, rb)
}
