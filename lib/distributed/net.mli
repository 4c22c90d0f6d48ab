(** The simulated message layer between the 2PC coordinator and its
    shards: per-exchange fault draws (drop / delay / partition, see
    {!Storage.Fault}), per-message timeouts, and retries with bounded
    exponential backoff + seeded jitter.

    Handlers run in-process on delivery and MUST be idempotent — a
    retry may re-run a handler whose response was lost.  Time is a
    virtual tick count. *)

(** Per-exchange retry policy. *)
type config = {
  msg_timeout : int;  (** ticks before one attempt is given up *)
  max_attempts : int;  (** send attempts per exchange *)
  max_backoff : int;  (** cap on the backoff window, in ticks *)
}

val default_config : config
(** [msg_timeout = 8; max_attempts = 6; max_backoff = 64]: the policy
    the 2PC coordinator and the replication group both run. *)

type t
(** A message channel: fault injector, retry policy, jitter RNG, and
    the [2pc.msgs]/[2pc.msg_retries]/[2pc.msg_lost]/[2pc.backoff_ticks]
    instruments. *)

(** What one exchange came back with.  [Lost {processed}] means no
    reply arrived; [processed] tells whether the handler nevertheless
    ran (partition on the response path, or an over-delayed reply) —
    information a real sender would not have, exposed so callers can
    account strandedness precisely. *)
type 'a reply = Reply of 'a | Lost of { processed : bool }

val create :
  ?metrics:Obs.Registry.t -> ?prefix:string -> fault:Storage.Fault.t ->
  seed:int -> config -> t
(** A channel drawing its faults from [fault] and its backoff jitter
    from a fresh RNG seeded with [seed].  [prefix] names the channel's
    instruments ([<prefix>.msgs] etc.); it defaults to ["2pc"], and the
    replication layer passes ["repl"] so the two message planes stay
    separately observable.  These two are the declared prefixes: any
    other raises [Invalid_argument] (see {!Obs.Registry.declared}). *)

val once : t -> site:string -> (unit -> 'a) -> 'a reply
(** One send attempt, no retries — the coordinator's cheap re-delivery
    nudge for stranded decisions. *)

val call : t -> site:string -> (unit -> 'a) -> ('a, bool) result
(** The full exchange with retries.  [Error processed_any] after the
    attempt budget: [processed_any] is true when at least one attempt
    reached the handler (so the receiver may have acted). *)

val ticks : t -> int
(** Virtual time consumed so far (delays, timeouts, backoff). *)
