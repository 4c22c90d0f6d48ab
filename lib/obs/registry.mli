(** The metric registry: monotonic counters, gauges, and log-scale
    {!Histogram}s behind stable dotted names ([pool.hits],
    [wal.fsync_ns], ...; the catalogue lives in docs/OBSERVABILITY.md
    and [dbmeta lint metrics] keeps it honest).

    Design for a ~zero disabled cost: an instrument is registered once,
    at component-construction time (one hashtable lookup), and handed
    back as a bare mutable record — the hot path is a field increment.
    The shared {!noop} registry is disabled: histograms created on it
    never read the clock ({!Histogram.time} just runs its thunk), so
    code instrumented against the default registry pays only integer
    increments.

    Every instrumented module runs its own constructor once, at module
    initialisation, on {!declared}.  Any other registry takes a name
    only as the kind declared there, for the name itself or for its
    family, the name with its last segment replaced by [*]
    ([fault.torn.*] declares [fault.torn.wal_flush]).  The check runs at
    a name's first registration on a registry, never on an increment.

    Registering the same name twice returns the same instrument;
    re-registering a name as a different kind, or registering a name or
    kind that is not declared, raises [Invalid_argument]. *)

(** Monotonic counters.  [incr]/[add] are single field updates. *)
module Counter : sig
  type t

  val make : unit -> t
  (** A free-standing counter (not in any registry) — for tests. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int

  val reset : t -> unit
  (** Tests only; production counters are monotonic. *)
end

(** Point-in-time gauges (resident pages, queue depth, 0/1 flags). *)
module Gauge : sig
  type t

  val make : unit -> t
  val set : t -> int -> unit
  val add : t -> int -> unit
  val value : t -> int
end

type t
(** A registry: a name → instrument table plus the enabled flag its
    histograms inherit. *)

val create : unit -> t
(** A fresh, enabled registry. *)

val noop : t
(** The shared disabled registry — the default everywhere.  Instruments
    registered on it work but are never rendered, and its histograms
    skip clock reads. *)

val declared : t
(** The process-wide declarations: what each instrumented module's
    constructor registered here at initialisation.  Disabled, like
    {!noop}, and exempt from the declaration check. *)

val enabled : t -> bool

val counter : t -> ?unit:string -> ?help:string -> string -> Counter.t
(** Register (or fetch) the named counter.  [unit] defaults to ["ops"]. *)

val gauge : t -> ?unit:string -> ?help:string -> string -> Gauge.t

val histogram : t -> ?unit:string -> ?help:string -> string -> Histogram.t
(** Register (or fetch) the named histogram; [unit] defaults to ["ns"].
    The histogram is active iff the registry is enabled. *)

val names : t -> string list
(** Every registered metric name, sorted. *)

type row = { name : string; kind : string; unit : string }
(** An instrument as a catalogue row describes it: its name, its kind
    (["counter"], ["gauge"] or ["histogram"]) and its unit. *)

val rows : t -> row list
(** Every registered instrument, sorted by name; on {!declared}, what
    [dbmeta lint metrics] checks against the catalogue. *)

val counter_value : t -> string -> int option
(** Look a counter up by name ([None] if absent or not a counter) —
    for tests and the CLI. *)

val to_text : t -> string
(** One line per instrument, sorted by name: kind, name, value (or
    count/percentiles/max/sum for histograms), unit, and help. *)

val to_json : t -> string
(** A JSON object [{"counters": [...], "gauges": [...], "histograms":
    [...]}] with each array sorted by name and a fixed key order, so two
    dumps of the same run diff cleanly.  Histogram percentiles are the
    bucket upper bounds (see {!Histogram.percentile}). *)
