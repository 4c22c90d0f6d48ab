(** Fault injection for the storage engine: a taxonomy of disk failures.

    Every durable I/O is a {!Disk} call that names its {e site} (e.g.
    ["wal flush"], ["page 3 write"], ["pager fsync"], ["page 3 read"])
    and the kinds it draws; {!Disk} alone calls the disk hooks below
    ({!io}, {!bit_flip}, {!torn_write}, {!with_retries}).  Four disk
    fault kinds are modelled:

    - {e crash} — the process dies at the [n]-th durable I/O (a budget,
      as before).  Every site records a uniform {!crash_info} payload
      and simulates its partial effect (a torn prefix for a log flush or
      a page write; lost unsynced write-tails for a crashed pager
      fsync; nothing for the sector-atomic header write or a whole-file
      replace).
    - {e torn write} — a page or WAL write silently loses its tail half
      (power blip inside the drive); detected later by CRC.
    - {e bit flip} — one random bit of the written image is corrupted
      in flight; detected later by CRC.
    - {e transient EIO} — a read or fsync fails with a retryable I/O
      error; callers retry with bounded backoff and raise {!Io_error}
      only when the budgeted retries are exhausted.

    Three further kinds model the {e network} between a commit
    coordinator and its shards (sites are message names such as
    ["prepare shard 0"]):

    - {e drop} — the message is lost before the receiver sees it.
    - {e delay} — delivery is late by a drawn number of scheduler
      ticks; past the caller's timeout the response is discarded even
      though the receiver processed the request.
    - {e part} — the link is partitioned: either direction may be the
      one that is down, so the sender cannot tell whether the receiver
      acted.

    The probabilistic kinds fire per-site under a seeded RNG, so every
    fault run is reproducible from its printed seed.  Specs are written
    in a small language (see {!spec_of_string}):

    {v crash=7,torn=0.1,flip@page=0.02,drop@prepare=0.3,seed=42 v}

    where [kind@site=p] scopes the probability to sites containing the
    substring [site], and an unscoped [kind=p] applies everywhere. *)

exception Crash of string
(** The argument names the I/O that was killed, e.g. ["wal flush"]. *)

exception Io_error of string
(** A transient I/O error that survived every retry (names the site). *)

type crash_info = { site : string; io_index : int }
(** The uniform payload recorded at the moment an injected crash fires:
    which site, and how many durable I/Os had succeeded before it. *)

(* --- specs: the --faults mini-language ---------------------------------- *)

type rule = { scope : string option; prob : float }
(** [scope = None] matches every site; [Some s] matches sites whose
    name contains [s] as a substring. *)

type spec = {
  crash_after : int option;  (** crash budget: this many I/Os succeed *)
  torn : rule list;
  flip : rule list;
  eio : rule list;
  drop : rule list;  (** message loss (request never delivered) *)
  delay : rule list;  (** late delivery, may exceed the sender's timeout *)
  part : rule list;  (** link partition: loss in an unknown direction *)
  seed : int option;  (** RNG seed for the probabilistic draws *)
}

val no_faults : spec
(** The empty spec: no crash budget, no probabilistic rules. *)

val spec_of_string : string -> spec
(** Parse the mini-language; raises [Invalid_argument] on malformed
    input with a message that names the offending clause (and the bad
    token within it) followed by the accepted grammar. *)

val spec_to_string : spec -> string
(** Round-trips through {!spec_of_string}. *)

(* --- the injector -------------------------------------------------------- *)

type t
(** The injector: crash budget, the spec it was configured with, seeded
    RNG, and the registry of {!set_metrics}. *)

val create : unit -> t
(** Unarmed: all I/O proceeds normally. *)

val set_metrics : t -> Obs.Registry.t -> unit
(** Route per-site firing counters into [registry].  Each fault that
    fires bumps a lazily registered counter named
    [fault.<kind>.<site>], where [<kind>] is one of the seven kinds
    above (each declared as the family [fault.<kind>.*]) and [<site>]
    is the I/O site normalized to a closed name set (spaces and dots
    become [_], digit runs become [N]: ["page 12 write"] yields
    [fault.torn.page_N_write]).  Defaults to {!Obs.Registry.noop}. *)

val configure : t -> spec -> unit
(** Install a spec (crash budget, probabilities, RNG seed). *)

val arm : t -> int -> unit
(** [arm t n]: the next [n] I/Os succeed, the one after crashes.
    Equivalent to configuring [{no_faults with crash_after = Some n}]
    without touching the probabilistic rules. *)

val crashed_at : t -> crash_info option
(** Where the injected crash fired, once it has. *)

val io : t -> at:string -> on_crash:(unit -> unit) -> unit
(** Account one durable I/O against the crash budget.  When the budget
    is exhausted: records the uniform {!crash_info} payload, runs
    [on_crash] (the site's partial-effect simulation), and raises
    {!Crash}.  Otherwise returns unit and the caller performs the real
    I/O. *)

val torn_write : t -> at:string -> bool
(** Should this write lose its tail?  (Counted when it fires.) *)

val bit_flip : t -> at:string -> len:int -> int option
(** Should this [len]-byte image be corrupted?  [Some bit_index] when
    the fault fires (the caller flips that bit in a copy). *)

val with_retries : t -> at:string -> ?on_retry:(unit -> unit) -> (unit -> 'a) -> 'a
(** The one transient-retry loop: draw a transient error at [at], and
    run the operation once no error fires; each firing calls
    [on_retry] and draws again (so with p < 1 the retries eventually
    succeed), up to 8 retries, after which {!Io_error} [at] escapes.
    Every eio site of {!Disk} runs under it. *)

val dropped : t -> at:string -> bool
(** Should this message be lost before the receiver sees it?  Each
    send attempt draws afresh.  (Counted when it fires.) *)

val delay_ticks : t -> at:string -> max:int -> int option
(** Should this message be delivered late?  [Some d] draws a delay of
    [d] scheduler ticks in [1..max]; the caller compares [d] against
    its timeout.  (Counted when it fires.) *)

val partitioned : t -> at:string -> bool
(** Is the link carrying this message partitioned?  The sender learns
    nothing about whether the receiver acted; pair with {!flip_coin}
    to decide which direction was down. *)

val flip_coin : t -> bool
(** A fair draw from the injector's seeded RNG, for tie-breaks such as
    the direction of a partition loss. *)

