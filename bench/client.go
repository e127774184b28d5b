package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"sigtable"
	"sigtable/internal/server"
)

// nbr is one k-NN neighbor as a client saw it. Items is set only when
// the answer came over HTTP, where the server returns them.
type nbr struct {
	TID   sigtable.TID
	Value float64
	Items []sigtable.Item
}

// client is how a workload reaches the index: in process through the
// engine, or over HTTP through the server.
type client interface {
	query(ctx context.Context, t sigtable.Transaction, fn, k int, frac float64) ([]nbr, error)
	rangeQuery(ctx context.Context, t sigtable.Transaction) ([]sigtable.TID, error)
	batch(ctx context.Context, ts []sigtable.Transaction, fn, k int) ([][]nbr, error)
	insert(ctx context.Context, t sigtable.Transaction) (sigtable.TID, error)
	remove(ctx context.Context, id sigtable.TID) error
}

var errInterrupted = errors.New("search interrupted")

// engineClient calls the engine directly with the library's default
// search options except K.
type engineClient struct{ e sigtable.Engine }

func candidates(cs []sigtable.Candidate) []nbr {
	out := make([]nbr, len(cs))
	for i, c := range cs {
		out[i] = nbr{TID: c.TID, Value: c.Value}
	}
	return out
}

func (c engineClient) query(ctx context.Context, t sigtable.Transaction, fn, k int, frac float64) ([]nbr, error) {
	res, err := c.e.Query(ctx, t, funcs[fn].f, sigtable.SearchOptions{K: k, MaxScanFraction: frac})
	if err != nil {
		return nil, err
	}
	if res.Interrupted {
		return nil, errInterrupted
	}
	return candidates(res.Neighbors), nil
}

func (c engineClient) rangeQuery(ctx context.Context, t sigtable.Transaction) ([]sigtable.TID, error) {
	res, err := c.e.RangeQuery(ctx, t, rangeConstraints, sigtable.SearchOptions{})
	if err != nil {
		return nil, err
	}
	if res.Interrupted {
		return nil, errInterrupted
	}
	return res.TIDs, nil
}

func (c engineClient) batch(ctx context.Context, ts []sigtable.Transaction, fn, k int) ([][]nbr, error) {
	res, err := c.e.BatchQuery(ctx, ts, funcs[fn].f, sigtable.SearchOptions{K: k})
	if err != nil {
		return nil, err
	}
	out := make([][]nbr, len(res))
	for i, r := range res {
		if r.Interrupted {
			return nil, errInterrupted
		}
		out[i] = candidates(r.Neighbors)
	}
	return out, nil
}

func (c engineClient) insert(_ context.Context, t sigtable.Transaction) (sigtable.TID, error) {
	return c.e.Insert(t), nil
}

func (c engineClient) remove(_ context.Context, id sigtable.TID) error {
	if !c.e.Delete(id) {
		return fmt.Errorf("delete %d: not live", id)
	}
	return nil
}

// httpClient speaks the server's /v1 JSON API. A traced op's span
// travels in the spanHeader request header.
type httpClient struct {
	base string
	hc   *http.Client
}

func (c *httpClient) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if ref, ok := spanFrom(ctx); ok {
		hreq.Header.Set(spanHeader, ref.String())
	}
	r, err := c.hc.Do(hreq)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(r.Body)
		return fmt.Errorf("%s: HTTP %d: %s", path, r.StatusCode, bytes.TrimSpace(msg))
	}
	err = json.NewDecoder(r.Body).Decode(resp)
	// Drain the trailing newline so the connection is reused.
	_, _ = io.Copy(io.Discard, r.Body)
	return err
}

func neighbors(ns []server.Neighbor) []nbr {
	out := make([]nbr, len(ns))
	for i, n := range ns {
		items := n.Items
		if items == nil {
			items = []sigtable.Item{}
		}
		out[i] = nbr{TID: n.TID, Value: n.Value, Items: items}
	}
	return out
}

func (c *httpClient) query(ctx context.Context, t sigtable.Transaction, fn, k int, frac float64) ([]nbr, error) {
	var resp server.QueryResponse
	err := c.post(ctx, "/v1/query", server.QueryRequest{Items: t, F: funcs[fn].name, K: k, MaxScanFraction: frac}, &resp)
	if err != nil {
		return nil, err
	}
	if resp.Interrupted {
		return nil, errInterrupted
	}
	return neighbors(resp.Neighbors), nil
}

func (c *httpClient) rangeQuery(ctx context.Context, t sigtable.Transaction) ([]sigtable.TID, error) {
	req := server.RangeRequest{Items: t}
	for _, rc := range rangeConstraints {
		req.Constraints = append(req.Constraints, server.RangeConjunct{F: rc.F.Name(), Threshold: rc.Threshold})
	}
	var resp server.RangeResponse
	if err := c.post(ctx, "/v1/range", req, &resp); err != nil {
		return nil, err
	}
	if resp.Interrupted {
		return nil, errInterrupted
	}
	return resp.TIDs, nil
}

func (c *httpClient) batch(ctx context.Context, ts []sigtable.Transaction, fn, k int) ([][]nbr, error) {
	req := server.BatchRequest{F: funcs[fn].name, K: k}
	for _, t := range ts {
		req.Targets = append(req.Targets, t)
	}
	var resp server.BatchResponse
	if err := c.post(ctx, "/v1/batch", req, &resp); err != nil {
		return nil, err
	}
	out := make([][]nbr, len(resp.Results))
	for i, r := range resp.Results {
		if r.Interrupted {
			return nil, errInterrupted
		}
		out[i] = neighbors(r.Neighbors)
	}
	return out, nil
}

func (c *httpClient) insert(ctx context.Context, t sigtable.Transaction) (sigtable.TID, error) {
	var resp server.InsertResponse
	err := c.post(ctx, "/v1/insert", server.InsertRequest{Items: t}, &resp)
	return resp.TID, err
}

func (c *httpClient) remove(ctx context.Context, id sigtable.TID) error {
	var resp server.DeleteResponse
	return c.post(ctx, "/v1/delete", server.DeleteRequest{TID: id}, &resp)
}
