package cluster_test

// Pins what every job route answers — status code and body — for each place
// a job ID can point: a job on the node asked, a job on a live peer (asked
// through the node that forwarded its submit and through a node that never
// saw it), a job on a dead peer, a failover alias, an ID that names no node
// and an ID that does not parse. Only wall-clock values are normalised; node
// names are written as the role the node plays (OWNER, FRONT, THIRD),
// because which of n0..n2 owns the key depends on the test servers' ports.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"repro/internal/service"
)

// routeCase is one request and the answer it must get.
type routeCase struct {
	via    string // role of the node asked
	method string
	path   string // with ID standing for the job ID under test
	code   int
	body   string
}

var (
	createdAt = regexp.MustCompile(`("created_at": ?)"[^"]*"`)
	elapsed   = regexp.MustCompile(`("elapsed_seconds": ?)[0-9.e+-]+`)
)

// The bodies the job routes answer with, for a done admission-hit job id
// that ran on node.
const (
	noSuchJob  = "{\n  \"error\": \"service: no such job\"\n}\n"
	statusBody = "{\n  \"id\": \"%[1]s\",\n  \"experiment\": \"cluster-fast\",\n  \"options\": {\n    \"seed\": 601,\n    \"runs\": 1,\n    \"quick\": true\n  },\n  \"node\": \"%[2]s\",\n  \"state\": \"done\",\n  \"cached\": true,\n  \"cache_key\": \"KEY\",\n  \"result_key\": \"KEY\",\n  \"progress\": {\n    \"done\": 0\n  },\n  \"created_at\": \"T\",\n  \"elapsed_seconds\": 0\n}\n"
	cancelBody = "{\n  \"id\": \"%[1]s\",\n  \"status\": \"cancelling\"\n}\n"
	traceBody  = "{\n  \"displayTimeUnit\": \"ns\",\n  \"otherData\": {\"traceId\": \"\", \"wallClockUnit\": \"us\", \"simClockDomain\": \"cycles\", \"droppedEvents\": 0},\n  \"traceEvents\": [\n    {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"wall-clock (us)\"}}\n  ]\n}\n"
	eventsBody = "id: 1\nevent: state\ndata: {\"id\":\"%[1]s\",\"experiment\":\"cluster-fast\",\"options\":{\"seed\":601,\"runs\":1,\"quick\":true},\"node\":\"%[2]s\",\"state\":\"done\",\"cached\":true,\"cache_key\":\"KEY\",\"result_key\":\"KEY\",\"progress\":{\"done\":0},\"created_at\":\"T\",\"elapsed_seconds\":0}\n\n"
)

// found is what the four job routes answer through via for the done job id
// that ran on node.
func found(via, id, node string) []routeCase {
	return []routeCase{
		{via, http.MethodGet, "/v1/jobs/ID", http.StatusOK, fmt.Sprintf(statusBody, id, node)},
		{via, http.MethodDelete, "/v1/jobs/ID", http.StatusOK, fmt.Sprintf(cancelBody, id)},
		{via, http.MethodGet, "/v1/jobs/ID/trace", http.StatusOK, traceBody},
		{via, http.MethodGet, "/v1/jobs/ID/events", http.StatusOK, fmt.Sprintf(eventsBody, id, node)},
	}
}

// missing is what the four job routes answer through via for an id no live
// node holds.
func missing(via string) []routeCase {
	var cs []routeCase
	for _, r := range found(via, "", "") {
		cs = append(cs, routeCase{via, r.method, r.path, http.StatusNotFound, noSuchJob})
	}
	return cs
}

// askRoute sends one request to tn and returns its status code and its body
// with wall-clock values normalised and node names replaced by roles.
func askRoute(t *testing.T, tn *testNode, method, path string, roles *strings.Replacer) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, tn.srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s via %s: %v", method, path, tn.name, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s via %s: reading body: %v", method, path, tn.name, err)
	}
	body := createdAt.ReplaceAllString(string(data), `${1}"T"`)
	body = elapsed.ReplaceAllString(body, `${1}0`)
	return resp.StatusCode, roles.Replace(body)
}

// checkRoutes asks every case about id and compares the answers.
func checkRoutes(t *testing.T, stage, id string, byRole map[string]*testNode, roles *strings.Replacer, cases ...[]routeCase) {
	t.Helper()
	for _, group := range cases {
		for _, c := range group {
			path := strings.ReplaceAll(c.path, "ID", id)
			code, body := askRoute(t, byRole[c.via], c.method, path, roles)
			if code != c.code || body != c.body {
				t.Errorf("%s: %s %s via %s = %d %q\nwant %d %q", stage, c.method, path, c.via, code, body, c.code, c.body)
			}
		}
	}
}

func TestPinJobRouting(t *testing.T) {
	disarmBlock()
	nodes := newCluster(t, 3, 1, nil)
	req := service.SubmitRequest{Experiment: "cluster-fast", Seed: 601, Runs: 1, Quick: true}
	oi, key := ownerOf(t, nodes, req)
	owner, front, third := nodes[oi], nodes[(oi+1)%3], nodes[(oi+2)%3]
	byRole := map[string]*testNode{"OWNER": owner, "FRONT": front, "THIRD": third}
	roles := strings.NewReplacer(
		"job-"+owner.name+"-", "job-OWNER-", "job-"+front.name+"-", "job-FRONT-", "job-"+third.name+"-", "job-THIRD-",
		`"`+owner.name+`"`, `"OWNER"`, `"`+front.name+`"`, `"FRONT"`, `"`+third.name+`"`, `"THIRD"`,
		key, "KEY")
	ctx := context.Background()

	// The owner computes the result first, so the pinned job — submitted
	// through FRONT and forwarded — is an admission hit whose event log is
	// one event long.
	first, err := owner.client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, owner, first.ID)
	js, err := front.client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if want := "job-" + owner.name + "-2"; js.ID != want || js.State != service.StateDone {
		t.Fatalf("forwarded submit = %s %s, want %s done", js.ID, js.State, want)
	}

	checkRoutes(t, "live owner", js.ID, byRole, roles,
		found("OWNER", "job-OWNER-2", "OWNER"), found("FRONT", "job-OWNER-2", "OWNER"), found("THIRD", "job-OWNER-2", "OWNER"))
	checkRoutes(t, "unissued sequence", "job-"+owner.name+"-999", byRole, roles, missing("THIRD"))
	checkRoutes(t, "no such node", "job-nowhere-1", byRole, roles, missing("FRONT"))
	for _, bad := range []string{"job-7", "bogus"} {
		checkRoutes(t, "malformed", bad, byRole, roles, missing("FRONT"))
	}

	// The owner dies. FRONT holds the entry (as a replica would), so its
	// stream failover replays the remembered submit as an admission hit.
	e, ok, err := owner.store.Get(key)
	if err != nil || !ok {
		t.Fatalf("owner's entry: %v %v", ok, err)
	}
	if err := front.store.Put(e); err != nil {
		t.Fatal(err)
	}
	owner.srv.Close()
	front.node.CheckPeers(ctx)
	third.node.CheckPeers(ctx)
	// THIRD never saw the submit, so it has nothing to replay. A DELETE
	// through FRONT does not resubmit a job only to cancel it.
	checkRoutes(t, "dead owner", js.ID, byRole, roles, missing("THIRD"), missing("FRONT")[1:2])

	// A GET through FRONT fails over, as the events stream does, and aliases
	// the dead owner's ID to a local job; every route through FRONT then
	// resolves it.
	checkRoutes(t, "failover", js.ID, byRole, roles, found("FRONT", "job-FRONT-1", "FRONT")[:1])
	checkRoutes(t, "aliased", js.ID, byRole, roles, found("FRONT", "job-FRONT-1", "FRONT"))
}
