(** A bounded page cache with pin/unpin, dirty tracking, LRU eviction,
    and hit/miss/eviction/flush counters.

    Evicting a dirty page writes it back even if the transaction that
    dirtied it is still running — the {e steal} policy — but only after
    the WAL barrier has made the log durable up to that page's LSN
    (the write-ahead rule).  Commit does not force pages ({e no-force});
    durability comes from the WAL alone.

    Frames own their buffers: a miss reads the page into the buffer of
    the frame it evicts (or of a frame that left earlier), so the pool
    never holds more than its capacity in page buffers.  The bytes a
    {!fetch} returns therefore belong to the frame only while it is
    pinned: {b do not use a page's bytes after {!unpin}} — once the frame
    is evicted, its buffer holds another page.  {!with_page} keeps this
    discipline for you. *)

(** Legacy in-process counters (predates [lib/obs]); kept because tests
    and the storage bench read them without wiring a registry. *)
type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable flushes : int;
}

type t
(** A pool: a bounded frame table over a {!Pager.t}. *)

exception Pool_exhausted
(** Every frame is pinned and a new page was requested. *)

val create : ?capacity:int -> ?metrics:Obs.Registry.t -> Pager.t -> t
(** [capacity] frames (default 64).  [metrics] receives the [pool.*]
    instruments (hit/miss/eviction/flush counters and the
    [pool.resident] gauge), mirroring the legacy {!stats} record;
    defaults to {!Obs.Registry.noop}. *)

val fetch : t -> int -> Page.t
(** Pin and return the page, reading (and possibly evicting) on miss.
    The victim is the least recently used unpinned frame, and the page
    is read into its buffer ({!Pager.read_into}).  A failed read raises
    as {!Pager.read_into} does, leaves the page non-resident and keeps
    the buffer for the next miss. *)

val unpin : t -> int -> unit
(** Drop one pin; the frame becomes evictable at zero pins, and the
    bytes {!fetch} returned must not be used again. *)

val with_page : t -> int -> (Page.t -> 'a) -> 'a
(** Fetch, apply, unpin (exception-safe). *)

val mark_dirty : t -> int -> unit
(** The caller mutated the page; it must currently be resident. *)

val adopt : t -> int -> Page.t -> unit
(** Insert a freshly allocated page into the pool without re-reading it.
    The page becomes the frame's buffer (the pool owns it from now on);
    the buffer it displaces, the victim's when the pool is full, is
    dropped, so the pool still holds at most its capacity.  A frame
    still resident under the same id (a reused page's old image) is
    dropped without being flushed. *)

val flush_page : t -> int -> unit
(** Write back one dirty frame (after the WAL barrier); no-op if clean
    or absent. *)

val flush_all : t -> unit
(** Write back dirty frames (in page-id order, for determinism). *)

val drop_clean : t -> unit
(** Forget clean unpinned frames — used by tests to simulate a cold
    cache without closing the file.  Their buffers stay with the pool
    for the next misses. *)

val set_wal_barrier : t -> (int -> unit) -> unit
(** [f lsn] is called before any dirty page with page-LSN [lsn] is
    written back; the engine points it at WAL flush. *)

val stats : t -> stats
(** The live legacy counters (mutated in place). *)

val capacity : t -> int
(** Frame budget this pool was created with. *)

val resident : t -> int
(** Frames currently cached (= the [pool.resident] gauge). *)

val has_dirty : t -> bool
(** Whether some resident frame holds changes not yet written back. *)

val pager : t -> Pager.t
(** The underlying pager. *)
