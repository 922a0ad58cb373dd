package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
)

// WriteJSON encodes v as one indented JSON document: the format of every
// metrics endpoint and of viewctl -stats.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// JSONServer is a running JSON metrics listener; Close stops it.
type JSONServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound listen address.
func (j *JSONServer) Addr() string { return j.ln.Addr().String() }

// Close stops the listener.
func (j *JSONServer) Close() error { return j.srv.Close() }

// ServeJSON serves snapshot's value as one JSON document over HTTP on
// addr (":0" picks a free port) in the background: the /debug/vars-like
// endpoint behind the daemons' -metrics flag. Every path answers the same
// document, so curl needs no exact route.
func ServeJSON(addr string, snapshot func() any) (*JSONServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		// Encoding a freshly built snapshot can only fail on a broken
		// connection; nothing to do about that here.
		_ = WriteJSON(w, snapshot())
	})}
	go func() {
		// Serve exits with ErrServerClosed on Close; other errors mean the
		// listener died, which the owner notices through failed scrapes.
		_ = srv.Serve(ln)
	}()
	return &JSONServer{ln: ln, srv: srv}, nil
}
