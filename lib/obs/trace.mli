(** Nestable span tracing with a bounded ring-buffer recorder and a
    Chrome [trace_event] dump.

    Spans are recorded as {e complete} events (name, start, duration,
    lane, nesting depth) when they close, so evicting the oldest entry
    of a full ring can never orphan a begin/end pair — the recorder is
    well-formed by construction, and {!end_span} on an empty stack is a
    programming error ([Invalid_argument]).

    Span names are dotted like metric names ([wal.flush], [engine.commit],
    [exec.txn]; see docs/OBSERVABILITY.md for the convention).  [tid]
    selects the rendering lane: lane 0 is the storage engine, lane
    [1 + slot] is executor slot [slot]. *)

(** One completed span, as stored in the ring. *)
type event = {
  name : string;
  tid : int;  (** rendering lane (Chrome "thread") *)
  start_ns : int;
  dur_ns : int;
  depth : int;  (** nesting depth at close, 0 = top level *)
  args : (string * string) list;  (** free-form annotations *)
}

type t
(** A recorder: a stack of open spans plus a bounded ring of completed
    ones. *)

val create : ?capacity:int -> ?clock:(unit -> int) -> unit -> t
(** An enabled recorder keeping the last [capacity] (default 4096)
    completed spans.  [clock] defaults to {!Clock.now_ns}; tests inject
    a deterministic one. *)

val noop : t
(** The shared disabled recorder — the default everywhere.  Every
    operation on it is a no-op (including {!end_span}, which never
    raises here), and {!with_span} runs its thunk without clock reads. *)

val enabled : t -> bool
(** [false] exactly for {!noop}. *)

val now : t -> int
(** The recorder's clock ([0] when disabled) — for callers emitting
    pre-timed events via {!emit}. *)

val begin_span :
  t -> ?tid:int -> ?args:(string * string) list -> ?start_ns:int -> string ->
  unit
(** Open a span; it records when the matching {!end_span} closes it.
    [start_ns] (a {!now} reading) backdates its start, for a phase whose
    first step ran before it was known whether the span is due. *)

val end_span : t -> unit
(** Close the innermost open span.  Raises [Invalid_argument] on an
    enabled recorder with no open span. *)

val with_span :
  t -> ?tid:int -> ?args:(string * string) list -> ?start_ns:int -> string ->
  (unit -> 'a) -> 'a
(** [begin_span]/[end_span] around the thunk, exception-safe. *)

val emit :
  t -> ?tid:int -> ?args:(string * string) list ->
  name:string -> start_ns:int -> dur_ns:int -> unit -> unit
(** Record an already-timed complete span (the executor times a
    transaction incarnation itself and emits it on commit/abort). *)

val depth : t -> int
(** Currently open (unclosed) spans. *)

val events : t -> event list
(** The surviving completed spans, oldest first. *)

val recorded : t -> int
(** Total spans ever completed (including evicted ones). *)

val dropped : t -> int
(** Spans evicted by the ring: [max 0 (recorded - capacity)]. *)

val well_formed : t -> bool
(** No span left open — what a finished trace must satisfy. *)

val to_chrome : t -> string
(** The Chrome [trace_event] JSON-object flavour: [{"traceEvents": [...
    phase-"X" records ...]}] with microsecond timestamps normalized to
    start at 0.  Opens in [about:tracing] and Perfetto. *)
