package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	siwa "repro"
	"repro/internal/lang"
	"repro/internal/service"
	"repro/internal/workload"
)

// identityPrograms draws n seeded programs cycling through every
// internal/workload family; a trailing comment keeps each digest unique.
func identityPrograms(n int) []string {
	rng := rand.New(rand.NewSource(20261016))
	families := []func() *lang.Program{
		func() *lang.Program { return workload.Pipeline(3+rng.Intn(3), 1+rng.Intn(3)) },
		func() *lang.Program { return workload.ClientServer(2 + rng.Intn(4)) },
		func() *lang.Program { return workload.Barrier(2+rng.Intn(2), 1+rng.Intn(2)) },
		func() *lang.Program { return workload.Ring(3 + rng.Intn(4)) },
		func() *lang.Program { return workload.RingBroken(3 + rng.Intn(4)) },
		func() *lang.Program { return workload.CrossRing(3+rng.Intn(3), 1+rng.Intn(2)) },
		func() *lang.Program { return workload.NestedLoops(1+rng.Intn(2), 2+rng.Intn(2)) },
		func() *lang.Program {
			return workload.Random(rng, workload.Config{
				Tasks: 3 + rng.Intn(2), StmtsPerTask: 3, Msgs: 2,
				BranchProb: 0.2, LoopProb: 0.15, MaxDepth: 2, AcceptRatio: 0.5,
			})
		},
	}
	srcs := make([]string, n)
	for i := range srcs {
		srcs[i] = families[i%len(families)]().String() + fmt.Sprintf("-- identity %d\n", i)
	}
	return srcs
}

// TestReportBytesIdenticalAcrossTiers is the surface oracle for the four
// paths that render analyze responses: replica single, replica batch,
// gateway single and gateway batch. Every raw "report" value served, on a
// cold pass and again from the result cache, must be byte for byte the
// library's json.Marshal(rep.JSONReport()) with no stage cache: the
// report is marshalled once and spliced, never re-encoded.
func TestReportBytesIdenticalAcrossTiers(t *testing.T) {
	srcs := identityPrograms(56)
	f := newFleet(t, 2, service.Config{})
	_, gw := newTestGateway(t, f.urls, Config{})

	type single struct {
		Report json.RawMessage `json:"report"`
		Cached bool            `json:"cached"`
	}
	type batch struct {
		Results []struct {
			ID     string          `json:"id"`
			Report json.RawMessage `json:"report"`
			Cached bool            `json:"cached"`
			Error  string          `json:"error"`
		} `json:"results"`
	}
	for _, algo := range []string{"refined", "pairs"} {
		a, ok := siwa.AlgorithmByName(algo)
		if !ok {
			t.Fatalf("unknown algorithm %q", algo)
		}
		want := make([][]byte, len(srcs))
		for i, src := range srcs {
			rep, err := siwa.AnalyzeSource(src, siwa.Options{Algorithm: a})
			if err != nil {
				t.Fatalf("program %d: %v", i, err)
			}
			if want[i], err = json.Marshal(rep.JSONReport()); err != nil {
				t.Fatal(err)
			}
		}
		opts := &service.WireOptions{Algorithm: algo}
		check := func(path string, pass, i int, got json.RawMessage, cached bool) {
			t.Helper()
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("%s %s pass %d program %d: report bytes differ\n got %s\nwant %s",
					algo, path, pass, i, got, want[i])
			}
			if pass == 1 && !cached {
				t.Errorf("%s %s pass 2 program %d: not served from the result cache", algo, path, i)
			}
		}
		for pass := 0; pass < 2; pass++ {
			for i, src := range srcs {
				req := service.AnalyzeRequest{Source: src, Options: opts}
				for _, target := range []struct{ path, url string }{
					{"replica single", f.urls[i%len(f.urls)]},
					{"gateway single", gw.URL},
				} {
					resp, data := postJSON(t, target.url+"/v1/analyze", req)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s program %d: HTTP %d %s", target.path, i, resp.StatusCode, data)
					}
					var out single
					if err := json.Unmarshal(data, &out); err != nil {
						t.Fatalf("%s program %d: %v", target.path, i, err)
					}
					check(target.path, pass, i, out.Report, out.Cached)
				}
			}
			progs := make([]service.BatchProgram, len(srcs))
			for i, src := range srcs {
				progs[i] = service.BatchProgram{ID: fmt.Sprint(i), Source: src}
			}
			for _, target := range []struct{ path, url string }{
				{"replica batch", f.urls[0]},
				{"gateway batch", gw.URL},
			} {
				resp, data := postJSON(t, target.url+"/v1/analyze/batch",
					service.BatchRequest{Programs: progs, Options: opts})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: HTTP %d %s", target.path, resp.StatusCode, data)
				}
				var out batch
				if err := json.Unmarshal(data, &out); err != nil {
					t.Fatalf("%s: %v", target.path, err)
				}
				if len(out.Results) != len(srcs) {
					t.Fatalf("%s: %d results for %d programs", target.path, len(out.Results), len(srcs))
				}
				for i, r := range out.Results {
					if r.Error != "" || r.ID != fmt.Sprint(i) {
						t.Fatalf("%s item %d: id %q error %q", target.path, i, r.ID, r.Error)
					}
					check(target.path, pass, i, r.Report, r.Cached)
				}
			}
		}
	}
}

// TestRequestBodyRejectionIdenticalAcrossTiers: a replica and the gateway
// in front of it accept and reject the same request bodies, with the same
// status and error code. Each table body was once answered 200 by one
// tier and 400 by the other: bytes after the JSON value reached a replica
// unchecked, and the gateway's batch decode dropped unknown fields, so a
// misspelled key silently ran the default analysis.
func TestRequestBodyRejectionIdenticalAcrossTiers(t *testing.T) {
	f := newFleet(t, 1, service.Config{})
	_, gw := newTestGateway(t, f.urls, Config{})
	const src = `"task a is begin end;"`
	post := func(url, body string) (int, service.Code) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			return resp.StatusCode, 0
		}
		return resp.StatusCode, decodeError(t, data).Code
	}
	for _, c := range []struct{ name, path, body string }{
		{"single, trailing bytes", "/v1/analyze", `{"source":` + src + `} trailing`},
		{"single, second value", "/v1/analyze", `{"source":` + src + `} {"source":` + src + `}`},
		{"batch, trailing bytes", "/v1/analyze/batch", `{"programs":[{"source":` + src + `}]} trailing`},
		{"batch, unknown field", "/v1/analyze/batch", `{"programs":[{"source":` + src + `}],"optoins":{"algorithm":"pairs"}}`},
		{"batch, unknown program field", "/v1/analyze/batch", `{"programs":[{"source":` + src + `,"optoins":{"algorithm":"pairs"}}]}`},
	} {
		rs, rc := post(f.urls[0]+c.path, c.body)
		gs, gc := post(gw.URL+c.path, c.body)
		if rs != gs || rc != gc {
			t.Errorf("%s: replica answered (%d, %q), gateway (%d, %q)", c.name, rs, rc, gs, gc)
		}
		if rs != http.StatusBadRequest || rc != service.CodeInvalidRequest {
			t.Errorf("%s: got (%d, %q), want (400, %q)", c.name, rs, rc, service.CodeInvalidRequest)
		}
	}
	// An unknown trace id gets the same 404 body from both tiers.
	const unknown = "ffffffffffffffffffffffffffffffff"
	want := "{\n  \"error\": {\n    \"code\": \"not_found\",\n    \"message\": \"no retained trace \\\"" + unknown + "\\\"\"\n  }\n}\n"
	rs, rb := getBody(t, f.urls[0]+"/debug/traces/"+unknown)
	gs, gb := getBody(t, gw.URL+"/debug/traces/"+unknown)
	if rs != http.StatusNotFound || gs != http.StatusNotFound || rb != want || gb != want {
		t.Errorf("unknown trace: replica answered %d %q, gateway %d %q, want 404 %q", rs, rb, gs, gb, want)
	}
	// Whitespace after the value is not data: both tiers accept it.
	for _, path := range []string{"/v1/analyze", "/v1/analyze/batch"} {
		body := `{"source":` + src + "}\n\t \n"
		if path == "/v1/analyze/batch" {
			body = `{"programs":[{"source":` + src + "}]}\r\n"
		}
		if rs, _ := post(f.urls[0]+path, body); rs != http.StatusOK {
			t.Errorf("replica %s: trailing whitespace answered %d", path, rs)
		}
		if gs, _ := post(gw.URL+path, body); gs != http.StatusOK {
			t.Errorf("gateway %s: trailing whitespace answered %d", path, gs)
		}
	}
}
