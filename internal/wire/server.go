package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"xnf/internal/core"
	"xnf/internal/engine"
	"xnf/internal/resource"
	"xnf/internal/types"
)

// OutputMeta is the wire form of core.Output (the schema frame). The cache
// layer rebuilds core.Output values from it.
type OutputMeta struct {
	Name     string
	CompID   int
	IsRel    bool
	Parent   string
	Children []string
	Role     string

	KeyCols       []int
	ParentKeyOrds []int
	ChildKeyOrds  [][]int

	DerivedFrom       string
	DerivedParentOrds []int

	ColNames []string
	ColTypes []types.Type

	BaseTable         string
	BaseCols          []string
	FKChildCols       []string
	ConnectTable      string
	ConnectParentCols []string
	ConnectChildCols  []string

	HasRows bool
}

// MetaFromOutput converts a compiled output for shipment.
func MetaFromOutput(o core.Output, hasRows bool) OutputMeta {
	return OutputMeta{
		Name: o.Name, CompID: o.CompID, IsRel: o.IsRel,
		Parent: o.Parent, Children: o.Children, Role: o.Role,
		KeyCols: o.KeyCols, ParentKeyOrds: o.ParentKeyOrds, ChildKeyOrds: o.ChildKeyOrds,
		DerivedFrom: o.DerivedFrom, DerivedParentOrds: o.DerivedParentOrds,
		ColNames: o.ColNames, ColTypes: o.ColTypes,
		BaseTable: o.BaseTable, BaseCols: o.BaseCols,
		FKChildCols: o.FKChildCols, ConnectTable: o.ConnectTable,
		ConnectParentCols: o.ConnectParentCols, ConnectChildCols: o.ConnectChildCols,
		HasRows: hasRows,
	}
}

// ToOutput converts back on the client side.
func (m OutputMeta) ToOutput() core.Output {
	return core.Output{
		Name: m.Name, CompID: m.CompID, IsRel: m.IsRel,
		Parent: m.Parent, Children: m.Children, Role: m.Role,
		KeyCols: m.KeyCols, ParentKeyOrds: m.ParentKeyOrds, ChildKeyOrds: m.ChildKeyOrds,
		DerivedFrom: m.DerivedFrom, DerivedParentOrds: m.DerivedParentOrds,
		ColNames: m.ColNames, ColTypes: m.ColTypes,
		BaseTable: m.BaseTable, BaseCols: m.BaseCols,
		FKChildCols: m.FKChildCols, ConnectTable: m.ConnectTable,
		ConnectParentCols: m.ConnectParentCols, ConnectChildCols: m.ConnectChildCols,
	}
}

// Server serves the CO protocol over a listener. One goroutine per
// connection; the engine's storage layer is already concurrency-safe.
type Server struct {
	DB *engine.Database

	// MaxCursorsPerSession bounds each session's open-cursor table
	// (0 = DefaultMaxCursors). A client that opens cursors without closing
	// them gets a per-request error, never unbounded server state.
	MaxCursorsPerSession int
	// CursorBlockRows is the rows-per-fetch block size used when the
	// client does not choose one (0 = DefaultCursorBlockRows). It bounds
	// the server's per-cursor result buffering: rows are pulled lazily
	// from the engine and at most one block is encoded at a time.
	CursorBlockRows int

	// CursorIdleTimeout closes server-side cursors that have not been
	// fetched for this long (0 = never). A slow or stalled reader holds
	// engine resources (spooled batches, memory reservations) for as long
	// as its cursor lives; the idle sweeper bounds that. A fetch on a
	// swept cursor gets a CodeNotFound error.
	CursorIdleTimeout time.Duration

	mu       sync.Mutex
	listener net.Listener

	// st holds the server's metric handles, registered lazily in the
	// database's registry (get-or-create: two servers over one database
	// share the counters).
	st       *serverStats
	statOnce sync.Once
}

// stats returns the server's metric handles, registering them on first
// use so a zero-value Server literal works without NewServer.
func (s *Server) stats() *serverStats {
	s.statOnce.Do(func() { s.st = newServerStats(s.DB.Registry()) })
	return s.st
}

// DefaultMaxCursors is the per-session open-cursor bound when the server
// does not configure one.
const DefaultMaxCursors = 64

// DefaultCursorBlockRows is the default rows-per-fetch block of the cursor
// protocol.
const DefaultCursorBlockRows = 1024

// NewServer wraps a database.
func NewServer(db *engine.Database) *Server {
	s := &Server{DB: db}
	s.stats() // register the wire metric families up front, so scrapes see them before the first connection
	return s
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.handle(conn)
	}
}

// Close stops the listener.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener != nil {
		return s.listener.Close()
	}
	return nil
}

// session is the per-connection state: a pending CO stream being fetched,
// the connection's prepared statements and its open cursors. Statement and
// cursor ids are session-scoped — two connections never see each other's
// ids — while the compiled plans behind statements live in the engine's
// shared plan cache, so the same SQL prepared on many connections is
// compiled once.
type session struct {
	// stream is the CO extraction FETCH frames drain, the one lazily
	// driven core.COStream; streamServed counts its shipped tuples.
	stream       *core.COStream
	streamCancel context.CancelFunc
	streamServed int64

	stmts  map[uint64]*engine.Stmt
	nextID uint64

	// mu guards the cursor table and the per-cursor busy/lastUsed marks:
	// handlers run on the connection goroutine, the idle sweeper on its
	// own. Everything else in the session is connection-goroutine-only.
	mu         sync.Mutex
	cursors    map[uint64]*cursor
	nextCursor uint64

	// mem is the session's memory accountant (a child of the database's
	// process accountant): statement executions and cursor block buffers
	// charge it, so one session's demand is visible and bounded.
	mem *resource.Accountant

	// timeout is the SET STATEMENT_TIMEOUT override (0 = engine default).
	// It is delivered to the engine as a context deadline, which replaces
	// the engine's own default in either direction.
	timeout time.Duration

	// st mirrors the session's statement/cursor tables into the server's
	// open-statement/open-cursor gauges, so leaks show up as nonzero
	// gauges after every session is gone.
	st *serverStats
}

// cursor is one open server-side result stream: a lazily driven
// engine.Rows plus the fetch block size chosen at open time. busy and
// lastUsed are sweeper coordination, guarded by session.mu: the sweeper
// never touches a cursor the connection goroutine is actively streaming.
type cursor struct {
	rows   *engine.Rows
	cancel context.CancelFunc // statement-timeout context, canceled on close
	block  int
	served int64

	busy     bool
	lastUsed time.Time
}

// teardown releases everything the session holds: open cursors close their
// engine plans (returning pooled batches), the CO stream and statement
// table are dropped, and the session accountant releases any remainder.
// handle defers it, so a client that vanishes mid-fetch leaks nothing.
func (sess *session) teardown() {
	sess.mu.Lock()
	ids := make([]uint64, 0, len(sess.cursors))
	for id := range sess.cursors {
		ids = append(ids, id)
	}
	sess.mu.Unlock()
	for _, id := range ids {
		sess.closeCursor(id)
	}
	sess.dropStream()
	sess.st.openStmts.Add(-int64(len(sess.stmts)))
	sess.stmts = nil
	sess.mem.Close()
}

// dropStream releases the session's pending CO stream, if any.
func (sess *session) dropStream() {
	if sess.stream != nil {
		sess.stream.Close()
		sess.stream = nil
		sess.streamServed = 0
	}
	if sess.streamCancel != nil {
		sess.streamCancel()
		sess.streamCancel = nil
	}
}

// closeCursor releases one cursor: the engine stream closes (returning
// pooled batches and memory reservations) and the open-cursor gauge drops.
// Every path that forgets a cursor — explicit close, end of stream,
// mid-stream error, idle sweep, session teardown — funnels through here so
// the gauge never drifts. Concurrent callers race on the map delete under
// the lock, so the engine stream closes exactly once.
func (sess *session) closeCursor(id uint64) {
	sess.mu.Lock()
	cur, ok := sess.cursors[id]
	if ok {
		delete(sess.cursors, id)
	}
	sess.mu.Unlock()
	if !ok {
		return
	}
	cur.rows.Close()
	if cur.cancel != nil {
		cur.cancel()
	}
	sess.st.openCursors.Dec()
}

// lookupCursor finds a cursor and marks it busy so the idle sweeper leaves
// it alone while the connection goroutine streams from it.
func (sess *session) lookupCursor(id uint64) (*cursor, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	cur, ok := sess.cursors[id]
	if ok {
		cur.busy = true
	}
	return cur, ok
}

// releaseCursor clears the busy mark and refreshes the idle clock.
func (sess *session) releaseCursor(cur *cursor) {
	sess.mu.Lock()
	cur.busy = false
	cur.lastUsed = time.Now()
	sess.mu.Unlock()
}

// sweepIdle closes cursors that have not been fetched within idle. It runs
// on its own goroutine per session until stop closes.
func (sess *session) sweepIdle(idle time.Duration, stop <-chan struct{}) {
	period := idle / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-idle)
		sess.mu.Lock()
		var victims []uint64
		for id, cur := range sess.cursors {
			if !cur.busy && cur.lastUsed.Before(cutoff) {
				victims = append(victims, id)
			}
		}
		sess.mu.Unlock()
		for _, id := range victims {
			sess.closeCursor(id)
			sess.st.cursorsIdleClosed.Inc()
		}
	}
}

// stmtCtx builds the context one statement runs under: the session's
// memory accountant rides along, and the SET STATEMENT_TIMEOUT override
// (when set) arms a deadline that replaces the engine default.
func (sess *session) stmtCtx() (context.Context, context.CancelFunc) {
	ctx := engine.WithMem(context.Background(), sess.mem)
	if sess.timeout > 0 {
		return context.WithTimeout(ctx, sess.timeout)
	}
	return ctx, func() {}
}

// trySet intercepts session-scoped SET commands arriving through the Exec
// path — currently only SET STATEMENT_TIMEOUT [=] <value>, where value is
// integer milliseconds or a Go duration string ('250ms', '2s'); 0 clears
// the override so the engine default applies again. handled reports
// whether sql was a SET command (successfully applied or not).
func (sess *session) trySet(sql string) (handled bool, err error) {
	f := strings.Fields(strings.TrimRight(strings.TrimSpace(sql), ";"))
	if len(f) < 3 || !strings.EqualFold(f[0], "SET") || !strings.EqualFold(f[1], "STATEMENT_TIMEOUT") {
		return false, nil
	}
	val := strings.TrimPrefix(strings.Join(f[2:], ""), "=")
	val = strings.Trim(val, "'\"")
	if ms, perr := strconv.ParseInt(val, 10, 64); perr == nil {
		if ms < 0 {
			return true, fmt.Errorf("STATEMENT_TIMEOUT must be >= 0, got %d", ms)
		}
		sess.timeout = time.Duration(ms) * time.Millisecond
		return true, nil
	}
	d, perr := time.ParseDuration(val)
	if perr != nil || d < 0 {
		return true, fmt.Errorf("bad STATEMENT_TIMEOUT value %q (want milliseconds or a duration)", val)
	}
	sess.timeout = d
	return true, nil
}

// maxSessionStmts bounds the per-connection statement table (defense
// against a client leaking statements).
const maxSessionStmts = 1024

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	st := s.stats()
	st.sessionsTotal.Inc()
	st.sessionsActive.Inc()
	defer st.sessionsActive.Dec()
	r := bufio.NewReader(conn)
	w := &srvWriter{w: bufio.NewWriter(conn), st: st}
	sess := &session{st: st, mem: s.DB.MemRoot().Child("session", 0)}
	defer sess.teardown()
	if idle := s.CursorIdleTimeout; idle > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go sess.sweepIdle(idle, stop)
	}
	for {
		t, payload, nread, err := readFrame(r)
		if err != nil {
			if errors.Is(err, errProtocol) {
				// An undecodable frame, not a dropped connection: report
				// the cause to the peer (best effort — the stream is
				// already suspect) instead of silently hanging up.
				st.discDecode.Inc()
				s.sendError(w, CodeProtocol, err.Error())
				w.flush()
			} else {
				// EOF or a network error: the client vanished without a
				// FrameClose. Teardown reclaims its cursors/statements.
				st.discVanish.Inc()
			}
			return
		}
		st.framesIn.Inc()
		st.bytesIn.Add(int64(nread))
		switch t {
		case FrameClose:
			st.discClean.Inc()
			return
		case FrameQueryCO:
			err = s.handleQueryCO(w, sess, string(payload))
		case FrameSQL:
			err = s.handleSQL(w, sess, string(payload))
		case FrameExec:
			err = s.handleExec(w, sess, string(payload))
		case FrameFetch:
			n, _ := binary.Varint(payload)
			err = s.handleFetch(w, sess, int(n))
		case FramePrepare:
			err = s.handlePrepare(w, sess, string(payload))
		case FrameExecute:
			err = s.handleExecute(w, sess, payload)
		case FrameCloseStmt:
			err = s.handleCloseStmt(w, sess, payload)
		case FrameExecCursor:
			err = s.handleExecCursor(w, sess, payload)
		case FrameFetchRows:
			err = s.handleFetchRows(w, sess, payload)
		case FrameCloseCursor:
			err = s.handleCloseCursor(w, sess, payload)
		case FrameStats:
			err = s.handleStats(w)
		default:
			err = s.sendError(w, CodeProtocol, fmt.Sprintf("unexpected frame %d", t))
		}
		if err == nil {
			err = w.flush()
		}
		if err != nil {
			// Handlers only fail when a response write fails (request
			// decode problems are answered with FrameError instead).
			st.discWrite.Inc()
			return
		}
	}
}

func (s *Server) sendError(w *srvWriter, code ErrCode, msg string) error {
	return w.writeFrame(FrameError, encodeError(code, msg))
}

// sendErr reports an execution error with its machine-readable class, so
// clients can tell retryable overload rejections from fatal failures.
func (s *Server) sendErr(w *srvWriter, err error) error {
	return s.sendError(w, codeOf(err), err.Error())
}

// codeOf classifies an engine/runtime error for the wire.
func codeOf(err error) ErrCode {
	switch {
	case errors.Is(err, resource.ErrResourceExhausted):
		return CodeResourceExhausted
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	default:
		return CodeInternal
	}
}

// wireRowBytes is the per-row estimate the server reserves from the
// session's memory budget while buffering one block of cursor or CO rows.
const wireRowBytes = 96

// handleStats answers a FrameStats request with a snapshot of the
// database registry — engine, pool, WAL, colstore and wire families in
// one flat sample list, the same data /metrics exposes over HTTP.
func (s *Server) handleStats(w *srvWriter) error {
	return w.writeFrame(FrameStats, encodeStats(s.DB.Registry().Snapshot()))
}

// handleQueryCO opens a CO view's stream, sends the schema frame and
// leaves the stream for subsequent FETCHes: the per-output plans of the
// engine's template cache run in place and drain lazily as FETCH demand
// arrives, so the server never materializes a DAG CO — its memory per
// extraction is one fetch chunk. A recursive view's fixpoint runs at the
// first FETCH, under the same statement context, and holds the view's
// local sets until the stream ends.
func (s *Server) handleQueryCO(w *srvWriter, sess *session, view string) error {
	sess.dropStream()
	ctx, cancel := sess.stmtCtx()
	stream, err := s.DB.StreamCOView(ctx, view)
	if err != nil {
		cancel()
		return s.sendErr(w, err)
	}
	sess.stream = stream
	sess.streamCancel = cancel
	outs := stream.Outputs()
	metas := make([]OutputMeta, len(outs))
	for i, out := range outs {
		metas[i] = MetaFromOutput(out, stream.HasRows(i))
	}
	return s.sendSchema(w, sess, metas)
}

// sendSchema gob-encodes the output metadata and ships the schema frame;
// on encoding failure the just-opened stream is released.
func (s *Server) sendSchema(w *srvWriter, sess *session, metas []OutputMeta) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(metas); err != nil {
		sess.dropStream()
		return s.sendErr(w, err)
	}
	return w.writeFrame(FrameSchema, buf.Bytes())
}

// handleFetch ships up to n tuples of the session's CO stream (n < 0 =
// everything, chunked). Every response ends with FrameMore (stream
// continues — issue another FETCH) or FrameDone (exhausted), so the
// exchange is deterministic. Tuples are pulled from the stream lazily,
// one chunk buffered at a time and reserved against the session's memory
// budget.
func (s *Server) handleFetch(w *srvWriter, sess *session, n int) error {
	const chunk = 1024
	if sess.stream == nil {
		// No extraction in flight: a FETCH with nothing pending drains to
		// an immediate empty Done, same as the tail of a finished stream.
		return w.writeFrame(FrameDone, binary.AppendVarint(nil, 0))
	}
	return s.fetchStream(w, sess, n, chunk)
}

// fetchStream serves one FETCH from the session's lazy CO stream: up to n
// tuples (n < 0 = drain), pulled chunk by chunk. Each chunk's buffer is
// reserved against the session budget before it is filled, so a budget
// breach surfaces as a retryable error instead of unbounded buffering.
func (s *Server) fetchStream(w *srvWriter, sess *session, n, chunk int) error {
	buf := make([]TaggedRow, 0, chunk)
	all := n < 0
	for all || n > 0 {
		want := chunk
		if !all && n < want {
			want = n
		}
		est := int64(want) * wireRowBytes
		if err := sess.mem.Reserve(est); err != nil {
			sess.dropStream()
			return s.sendErr(w, err)
		}
		buf = buf[:0]
		eof := false
		var serr error
		for len(buf) < want {
			comp, row, err := sess.stream.Next()
			if err != nil {
				serr = err
				break
			}
			if row == nil {
				eof = true
				break
			}
			buf = append(buf, TaggedRow{CompID: comp, Row: row})
		}
		if serr != nil {
			sess.mem.Release(est)
			sess.dropStream()
			return s.sendErr(w, serr)
		}
		if len(buf) > 0 {
			sess.streamServed += int64(len(buf))
			if !all {
				n -= len(buf)
			}
			if err := w.writeFrame(FrameRows, encodeRows(buf)); err != nil {
				sess.mem.Release(est)
				return err
			}
		}
		sess.mem.Release(est)
		if eof {
			total := sess.streamServed
			sess.dropStream()
			return w.writeFrame(FrameDone, binary.AppendVarint(nil, total))
		}
	}
	return w.writeFrame(FrameMore, nil)
}

// handlePrepare compiles (or fetches from the shared plan cache) a
// statement and registers it in the session's statement table.
func (s *Server) handlePrepare(w *srvWriter, sess *session, sql string) error {
	if sess.stmts == nil {
		sess.stmts = make(map[uint64]*engine.Stmt)
	}
	if len(sess.stmts) >= maxSessionStmts {
		return s.sendError(w, CodeBusy, fmt.Sprintf("too many prepared statements (limit %d)", maxSessionStmts))
	}
	st, err := s.DB.Prepare(sql)
	if err != nil {
		return s.sendErr(w, err)
	}
	sess.nextID++
	id := sess.nextID
	sess.stmts[id] = st
	sess.st.openStmts.Inc()
	var cols []string
	for _, c := range st.Columns() {
		cols = append(cols, c.Name)
	}
	err = w.writeFrame(FramePrepared, encodePrepared(id, st.NumParams(), cols))
	return err
}

// handleExecute runs a session statement with bound arguments: SELECTs
// ship rows + Done(count), DML ships Done(affected).
func (s *Server) handleExecute(w *srvWriter, sess *session, payload []byte) error {
	id, args, err := decodeExecute(payload)
	if err != nil {
		return s.sendError(w, CodeProtocol, err.Error())
	}
	st, ok := sess.stmts[id]
	if !ok {
		return s.sendError(w, CodeNotFound, fmt.Sprintf("unknown statement id %d", id))
	}
	// Revalidate against the live catalog: a no-op while nothing changed,
	// a recompile (or a clean error) after concurrent DDL/ANALYZE — the
	// session must never run a stale plan against a changed schema.
	st, err = st.Revalidate()
	if err != nil {
		return s.sendErr(w, err)
	}
	sess.stmts[id] = st
	if st.IsQuery() {
		ctx, cancel := sess.stmtCtx()
		defer cancel()
		rows, err := st.QueryRowsContext(ctx, args...)
		if err != nil {
			return s.sendErr(w, err)
		}
		return s.streamRows(w, sess, rows)
	}
	n, err := st.Exec(args...)
	if err != nil {
		return s.sendErr(w, err)
	}
	err = w.writeFrame(FrameDone, binary.AppendVarint(nil, n))
	return err
}

// handleCloseStmt drops a statement from the session table.
func (s *Server) handleCloseStmt(w *srvWriter, sess *session, payload []byte) error {
	id, k := binary.Uvarint(payload)
	if k <= 0 {
		return s.sendError(w, CodeProtocol, "bad statement id")
	}
	if _, ok := sess.stmts[id]; ok {
		delete(sess.stmts, id)
		sess.st.openStmts.Dec()
	}
	err := w.writeFrame(FrameDone, binary.AppendVarint(nil, 0))
	return err
}

// handleExecCursor opens a server-side cursor over a prepared SELECT: the
// engine plan starts executing but no row is produced yet; blocks are
// pulled lazily per fetch, so server memory per cursor is O(block), not
// O(result). The response is FrameCursor(id) followed by the first block.
func (s *Server) handleExecCursor(w *srvWriter, sess *session, payload []byte) error {
	id, block, args, err := decodeExecCursor(payload)
	if err != nil {
		return s.sendError(w, CodeProtocol, err.Error())
	}
	st, ok := sess.stmts[id]
	if !ok {
		return s.sendError(w, CodeNotFound, fmt.Sprintf("unknown statement id %d", id))
	}
	st, err = st.Revalidate()
	if err != nil {
		return s.sendErr(w, err)
	}
	sess.stmts[id] = st
	if !st.IsQuery() {
		return s.sendError(w, CodeInternal, "cursor requires a prepared SELECT")
	}
	limit := s.MaxCursorsPerSession
	if limit <= 0 {
		limit = DefaultMaxCursors
	}
	sess.mu.Lock()
	ncursors := len(sess.cursors)
	sess.mu.Unlock()
	if ncursors >= limit {
		return s.sendError(w, CodeBusy, fmt.Sprintf("too many open cursors (limit %d)", limit))
	}
	ctx, cancel := sess.stmtCtx()
	rows, err := st.QueryRowsContext(ctx, args...)
	if err != nil {
		cancel()
		return s.sendErr(w, err)
	}
	if block <= 0 {
		block = s.CursorBlockRows
	}
	if block <= 0 {
		block = DefaultCursorBlockRows
	}
	// The cursor starts busy: the sweeper leaves it alone until the first
	// block below finishes streaming and releases it.
	cur := &cursor{rows: rows, cancel: cancel, block: block, busy: true, lastUsed: time.Now()}
	sess.mu.Lock()
	if sess.cursors == nil {
		sess.cursors = make(map[uint64]*cursor)
	}
	sess.nextCursor++
	cid := sess.nextCursor
	sess.cursors[cid] = cur
	sess.mu.Unlock()
	sess.st.openCursors.Inc()
	if err := w.writeFrame(FrameCursor, binary.AppendUvarint(nil, cid)); err != nil {
		return err
	}
	return s.streamBlock(w, sess, cid, cur, block)
}

// handleFetchRows ships the next block of an open cursor.
func (s *Server) handleFetchRows(w *srvWriter, sess *session, payload []byte) error {
	cid, n, err := decodeFetchRows(payload)
	if err != nil {
		return s.sendError(w, CodeProtocol, err.Error())
	}
	cur, ok := sess.lookupCursor(cid)
	if !ok {
		return s.sendError(w, CodeNotFound, fmt.Sprintf("unknown cursor id %d", cid))
	}
	if n <= 0 {
		n = cur.block
	}
	return s.streamBlock(w, sess, cid, cur, n)
}

// handleCloseCursor closes a cursor early, releasing its engine resources.
// Closing an unknown id is a no-op (the server auto-closes a cursor on
// FrameDone, so a drained client's close must stay idempotent).
func (s *Server) handleCloseCursor(w *srvWriter, sess *session, payload []byte) error {
	cid, k := binary.Uvarint(payload)
	if k <= 0 {
		return s.sendError(w, CodeProtocol, "bad cursor id")
	}
	var served int64
	if cur, ok := sess.lookupCursor(cid); ok {
		served = cur.served
		sess.closeCursor(cid)
	}
	err := w.writeFrame(FrameDone, binary.AppendVarint(nil, served))
	return err
}

// cursorChunkRows caps the rows encoded into one FrameRows frame of a
// cursor block, so even a huge requested block never builds a frame larger
// than one chunk's worth of rows at a time.
const cursorChunkRows = 1024

// streamBlock pulls up to n rows from the cursor's engine stream and ships
// them, then terminates the exchange with FrameMore (rows remain), FrameDone
// (stream exhausted — the cursor is closed and forgotten) or FrameError (the
// plan failed mid-stream — likewise closed). At most cursorChunkRows rows
// are held in memory between pulls, and each chunk buffer is reserved
// against the session's memory budget first. The cursor is busy (sweeper-
// exempt) for the duration; the FrameMore path releases it with a fresh
// idle clock.
func (s *Server) streamBlock(w *srvWriter, sess *session, cid uint64, cur *cursor, n int) error {
	buf := make([]TaggedRow, 0, min(n, cursorChunkRows))
	for n > 0 {
		buf = buf[:0]
		want := min(n, cursorChunkRows)
		est := int64(want) * wireRowBytes
		if err := sess.mem.Reserve(est); err != nil {
			sess.closeCursor(cid)
			return s.sendErr(w, err)
		}
		eof := false
		for len(buf) < want {
			row, err := cur.rows.Next()
			if err != nil {
				sess.mem.Release(est)
				sess.closeCursor(cid)
				return s.sendErr(w, err)
			}
			if row == nil {
				eof = true
				break
			}
			buf = append(buf, TaggedRow{CompID: 0, Row: row})
		}
		if len(buf) > 0 {
			cur.served += int64(len(buf))
			n -= len(buf)
			if err := w.writeFrame(FrameRows, encodeRows(buf)); err != nil {
				sess.mem.Release(est)
				return err
			}
		}
		sess.mem.Release(est)
		if eof {
			sess.closeCursor(cid)
			err := w.writeFrame(FrameDone, binary.AppendVarint(nil, cur.served))
			return err
		}
	}
	sess.releaseCursor(cur)
	err := w.writeFrame(FrameMore, nil)
	return err
}

// handleSQL runs a plain SELECT and streams the rows (component 0).
func (s *Server) handleSQL(w *srvWriter, sess *session, sql string) error {
	ctx, cancel := sess.stmtCtx()
	defer cancel()
	rows, err := s.DB.QueryRowsContext(ctx, sql)
	if err != nil {
		return s.sendErr(w, err)
	}
	return s.streamRows(w, sess, rows)
}

// streamRows drains an engine cursor into chunked FrameRows frames
// terminated by FrameDone(count) — the bounded-memory result path shared
// by handleSQL and handleExecute. Like the cursor protocol's streamBlock,
// at most cursorChunkRows rows are held between pulls (each chunk reserved
// against the session budget), so the server never materializes a result
// set; unlike it, the whole stream ships in one exchange. A mid-stream
// plan failure turns into FrameError and the connection stays usable.
func (s *Server) streamRows(w *srvWriter, sess *session, rows *engine.Rows) error {
	defer rows.Close()
	buf := make([]TaggedRow, 0, cursorChunkRows)
	var served int64
	const est = int64(cursorChunkRows) * wireRowBytes
	for {
		if err := sess.mem.Reserve(est); err != nil {
			return s.sendErr(w, err)
		}
		buf = buf[:0]
		eof := false
		for len(buf) < cursorChunkRows {
			row, err := rows.Next()
			if err != nil {
				sess.mem.Release(est)
				return s.sendErr(w, err)
			}
			if row == nil {
				eof = true
				break
			}
			buf = append(buf, TaggedRow{CompID: 0, Row: row})
		}
		if len(buf) > 0 {
			served += int64(len(buf))
			if err := w.writeFrame(FrameRows, encodeRows(buf)); err != nil {
				sess.mem.Release(est)
				return err
			}
		}
		sess.mem.Release(est)
		if eof {
			return w.writeFrame(FrameDone, binary.AppendVarint(nil, served))
		}
	}
}

// handleExec runs DML/DDL and returns the affected-row count. Session
// SET commands (SET STATEMENT_TIMEOUT) are intercepted here before SQL
// parsing — they configure the session, not the database.
func (s *Server) handleExec(w *srvWriter, sess *session, sql string) error {
	if handled, err := sess.trySet(sql); handled {
		if err != nil {
			return s.sendError(w, CodeProtocol, err.Error())
		}
		return w.writeFrame(FrameDone, binary.AppendVarint(nil, 0))
	}
	n, err := s.DB.Exec(sql)
	if err != nil {
		return s.sendErr(w, err)
	}
	err = w.writeFrame(FrameDone, binary.AppendVarint(nil, n))
	return err
}
