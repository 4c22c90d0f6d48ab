(** Heap storage over the pager: page chains of variable-length records,
    accessed through the buffer pool.

    Hosts the four on-disk structures above the raw pages: the
    transactional item store (the KV plane the WAL protects), per-table
    tuple chains, their fence chains, and the table catalog. *)

val kind_items : int
(** Page kind tag of item-store pages, visible in [db status]. *)

val kind_table : int
(** Page kind tag of table tuple-chain pages. *)

val kind_catalog : int
(** Page kind tag of catalog pages. *)

val kind_fence : int
(** Page kind tag of fence-chain pages. *)

val fold_chain :
  Buffer_pool.t -> first:int -> init:'a -> ('a -> int -> Page.t -> 'a) -> 'a
(** [fold_chain pool ~first ~init f] folds [f acc id page] down the
    chain rooted at [first] (nothing when it is 0), in chain order: it
    fetches each page through the pool, calls [f] while the page is
    pinned, and follows its {!Page.next}.  Every walk of a whole chain
    goes through it except {!iter_relation}'s, which reads page by page
    with {!scan_page}. *)

val scan_page :
  Buffer_pool.t -> int -> Relational.Codec.view ->
  (Relational.Codec.view -> unit) -> int
(** [scan_page pool id view f] reads one table-chain page in place: it
    pins page [id], points [view] at each live record in slot order
    ({!Relational.Codec.walk}, which validates it), calls [f view] while
    the page is still pinned, and returns the next page id (0 at the end
    of the chain).  No record is copied; [f] decodes what it keeps.
    Every table-chain reader goes through it: {!iter_relation}, the
    executor's scans and the fence scan's page reads. *)

val chain_pages : Buffer_pool.t -> first:int -> int
(** Number of pages in the chain rooted at [first] (0 when [first] is 0)
    — the I/O footprint a sequential scan pays.  The planner's cost
    model takes it from statistics and walks the chain only for a table
    that has none. *)

val chain_lsns : Buffer_pool.t -> first:int -> (int * int) list
(** (page id, page LSN) down the chain rooted at [first], in chain
    order, read from the page headers: each page is fetched through the
    pool, so CRC-checked ({!Pager.Corrupt} on a failure), but no record
    is decoded.  The engine's open compares the item chain's LSNs
    against the surviving log's end to spot stolen pages whose log
    records were lost. *)

(** The item store: a string-keyed map to int values (absent reads 0),
    with an in-memory directory built by {!load} and in-place updates
    whose page-LSN discipline implements the ARIES redo test. *)
module Items : sig
  type t

  val load : Buffer_pool.t -> t
  (** Scan the item chain (root in the pager header) and build the
      directory.  The engine calls it on the first item access, not at
      open. *)

  val get : t -> string -> int

  val set : t -> lsn:int -> string -> int -> bool
  (** Apply a logged write: [false] when the item's page LSN already
      covers [lsn] (redo skip), [true] after applying and raising the
      page LSN. *)

  val all : t -> (string * int) list
  (** Sorted; items whose current value is 0 are omitted (reading an
      absent item yields 0, matching {!Transactions.Recovery.read}). *)

  val count : t -> int
end

type fences = { root : int; count : int }
(** Where a table's fence chain starts and how many fences it holds —
    one per data page. *)

type fence = { key : Relational.Value.t; page : int }
(** One fence: a data page's first leading-column value and its page
    id. *)

type stats = { rows : int; pages : int; distinct : int list }
(** A table's statistics, counted as {!save_relation} writes it: its
    tuples, its data pages (the chain {!iter_relation} walks, fence
    chain excluded), and one distinct-value count per column in schema
    order.  Values are distinct as a polymorphic [Hashtbl] has them:
    every nan is one value, and -0.0 is 0.0. *)

type table = {
  name : string;
  schema : Relational.Schema.t;
  first : int;
  fences : fences option;
  stats : stats option;
}
(** One catalog entry: table name, schema, its chain's first page, its
    fence chain ([None] for a one-page chain, and for every entry
    written before fence chains existed — their encoding has no fence
    fields), and its statistics ([None] only for an entry an older
    binary wrote, whose encoding has none; it is rewritten in that
    encoding until its table is replaced or counted). *)

val save_relation :
  Buffer_pool.t -> name:string -> Relational.Relation.t -> table
(** Write the relation's tuples into a fresh chain, in
    {!Relational.Tuple.compare} order (so sorted on the leading column),
    and return the catalog entry describing it, with the statistics
    counted while the tuples were written.  A chain of two or more
    pages also gets a fence chain (page kind {!kind_fence}): one
    {!fence} per data page, in chain order.  Pages come from the pager's
    free set first, so no order of page ids is implied.  Nothing is
    published until a catalog chain naming the entry is the header's
    root. *)

val read_fences : Buffer_pool.t -> table -> fence array option
(** The table's fences in chain order, read from its fence chain —
    [Some] only when the fence chain is exactly what the entry promises:
    it holds [count] fences, the first names the chain's first page, and
    no fence page fails its CRC check (a failure is still counted in
    [pager.crc_failures]).  [None] for an unfenced table and for fences
    a silent torn write or bit flip damaged (a crash cannot: a replace
    publishes only durable fences); callers then walk the data chain. *)

val iter_relation :
  Buffer_pool.t -> first:int -> (Relational.Tuple.t -> unit) -> int
(** [iter_relation pool ~first f] streams a table chain: it decodes each
    record in place ({!scan_page}) and calls [f] on the tuple, page by
    page in chain order, without building a relation, and returns the
    number of pages walked (the {!chain_pages} count).  [f] runs while
    the record's page is pinned.  {!load_relation}, the planner's index
    builds and {!count_relation} all read tables through it. *)

val load_relation :
  Buffer_pool.t -> schema:Relational.Schema.t -> first:int -> Relational.Relation.t
(** The whole chain as a relation, read with {!iter_relation}. *)

val count_relation : Buffer_pool.t -> table -> stats
(** The statistics {!save_relation} would record for the entry's
    chain, counted by one walk of it — for an entry an older binary
    wrote without them.  The fence chain is not read. *)

val catalog : Buffer_pool.t -> table list
(** All catalog entries, in catalog-chain order. *)

val replace_tables : Buffer_pool.t -> table list -> int
(** Write the whole catalog into a fresh chain, with each of [tables]
    in place of the entry of the same name (appended, in list order,
    when there is none), and return its first page.  Nothing the
    header reaches is written: the caller publishes the root with
    {!Pager.set_catalog_root} once the new pages are durable.  A
    replaced table's pages and the old catalog chain are then reached
    by nothing. *)

val owned_pages : Buffer_pool.t -> int list option
(** Every page the header reaches, read through the pool: the item
    chain, the catalog chain, and per catalog entry (reserved ones
    included) its fence chain and its data pages — named by the fences
    when they are whole, else by walking the data chain.  [None] when a
    page fails its CRC, a record does not decode, or a page is reached
    twice.  The pager derives its free set from it. *)
