package node

import (
	"pgrid/internal/addr"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// handleMetrics answers KindMetrics with the node's full metrics snapshot:
// every counter and gauge plus every quantile histogram in sparse mergeable
// form. With telemetry disabled the response still carries the schema
// version and empty tables, so collectors can distinguish "no telemetry"
// from "no answer".
func (n *Node) handleMetrics() *wire.MetricsResp {
	return &wire.MetricsResp{Snap: n.tel.MetricsSnapshot()}
}

// FetchMetrics fetches a peer's full metrics snapshot.
func (c *Client) FetchMetrics(a addr.Addr) (telemetry.MetricsSnapshot, error) {
	resp, err := c.ask(a, MetricsReq(), func(m *wire.Message) bool { return m.MetricsResp != nil })
	if err != nil {
		return telemetry.MetricsSnapshot{}, err
	}
	return resp.MetricsResp.Snap, nil
}
