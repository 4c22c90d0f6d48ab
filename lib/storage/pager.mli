(** The pager: a file of fixed-size, CRC-checked pages behind a header
    page carrying magic, format version, page count, and the chain roots
    for the table catalog and the transactional item store.

    Page id 0 is the header and is not directly readable.  Allocation
    takes the lowest page that nothing reaches and grows the file only
    when none is left; free space is derived by the owner walk
    ({!set_owner}), never stored.  The file is a {!Disk.t}: every page
    write and allocation, page read, header write and fsync is a
    {!Disk} fault site.  A crash at a page write leaves its torn prefix
    (and a crashed fsync tears the tail of the page writes it did not
    make durable), probabilistic torn writes and bit flips corrupt
    pages silently until CRC catches them, and transient EIO faults are
    retried with a bounded budget before escaping as
    {!Fault.Io_error}.  The header write is sector-atomic: a crash
    there writes nothing, and no crashed fsync tears it.  The header
    read at open is not a fault site. *)

exception Corrupt of string
(** Bad magic, version mismatch, short read, CRC mismatch, or an
    out-of-range page id. *)

type t

val create : ?fault:Fault.t -> ?metrics:Obs.Registry.t -> string -> t
(** Create (truncating any existing file) with an empty header.
    [metrics] receives the [pager.*] counters, the pager's only counts
    (reads, writes, crc_failures, io_retries, syncs, reused); defaults
    to {!Obs.Registry.noop}. *)

val open_file : ?fault:Fault.t -> ?metrics:Obs.Registry.t -> string -> t
(** Open and validate an existing database file; raises {!Corrupt}.
    [metrics] as for {!create}. *)

val close : t -> unit
(** Writes the header back when it changed since it was last written
    (a checkpoint moved the {!anchor}), then closes the descriptor. *)

val abandon : t -> unit
(** Close the descriptor without writing anything — the file is left
    exactly as the simulated crash left it. *)

val page_count : t -> int
(** Including the header page. *)

val set_owner : t -> (unit -> int list option) -> unit
(** Wire the owner walk: every page id the header reaches, or [None]
    when they cannot all be known.  The engine wires {!Heap.owned_pages}
    over its pool once, at open; without a walk nothing is reused. *)

val unreached : t -> int list -> int list option
(** [unreached t owned] is every id in [1 .. page_count - 1] that
    [owned] does not name, ascending; [None] when [owned] names an id
    outside the file. *)

val allocate : t -> kind:int -> int
(** Write a fresh formatted page and return its id.  The first call
    derives the free set: the ids the owner walk did not reach (none
    when the walk fails or none is wired).  Allocation takes the lowest
    free id, overwriting it with the blank page before any chain can
    link to it, and counts it in [pager.reused]; the header does not
    change.  Only when no free page is left does it append, writing the
    page before the header records the new count, so a crash between
    the two leaves a consistent file.  A page retired after the free set
    was derived stays out of it ({!release} aside) until the next open,
    so a page an open planning context may still read is never reused
    under it. *)

val release : t -> int list -> unit
(** Return pages to the free set — for pages nothing reaches any more
    and no reader can hold, such as a catalog chain after the synced
    header that retired it. *)

val read_into : t -> int -> Page.t -> unit
(** [read_into t id buf] reads page [id] into [buf], overwriting it.
    Raises {!Corrupt} on a short read or a CRC mismatch (the page id is
    also recorded in {!corrupt_pages} so the engine can quarantine it);
    transient read faults are retried, raising {!Fault.Io_error} only
    when every retry fails.  After a failure [buf]'s contents are
    unspecified.  The buffer pool reads every miss through it, into the
    buffer of the frame it evicted. *)

val read_page : t -> int -> Page.t
(** {!read_into} a fresh buffer. *)

val write_page : t -> int -> Page.t -> unit
(** Seals (checksums) and writes the page. *)

val sync : t -> unit
(** fsync the file — the site ["pager fsync"], drawing a crash, then
    transient EIO.  An injected crash here tears the tail half of a
    random subset of the page writes since the last successful sync
    (their durability is exactly what the lost fsync would have
    bought). *)

val catalog_root : t -> int
(** First page of the catalog chain, from the header (0 = absent). *)

val set_catalog_root : t -> int -> unit
(** Record the catalog root and write the header through: the root
    switch that publishes a table replace.  Call it only once every page
    the new catalog chain reaches is durable, and {!sync} after it
    before acknowledging; an appending {!allocate} writes the header
    too, so nothing may put a new root into it earlier. *)

val items_root : t -> int
(** First page of the item-store chain, from the header (0 = absent). *)

val set_items_root : t -> int -> unit
(** Record the item-store root and write the header through. *)

val anchor : t -> (int * int) option
(** The header's log anchor: the LSN of the last checkpoint whose whole
    log prefix was read back clean, and the next transaction id at that
    point; [None] when the header holds none (a fresh file, or one
    written by a binary that kept no anchor).  The open walks the log
    from it when {!Engine.log_anchor}'s rule accepts it. *)

val set_anchor : t -> (int * int) option -> unit
(** Move the anchor in memory.  A change marks the header dirty; the
    next header write ({!close}, a root switch, an appending
    {!allocate}) carries it, and none is added for it. *)

val fault : t -> Fault.t
(** The injector the file's fault sites consult. *)

val path : t -> string
(** The database file path this pager was opened on. *)

val corrupt_pages : t -> int list
(** Page ids that failed their CRC since open (or since
    {!forget_corrupt}), sorted, deduplicated — the engine's quarantine
    list. *)

val forget_corrupt : t -> unit
(** Clear {!corrupt_pages} after a repair has rebuilt past them. *)
