(** Heap storage over the pager: page chains of variable-length records,
    accessed through the buffer pool.

    Hosts the three on-disk structures above the raw pages: the
    transactional item store (the KV plane the WAL protects), per-table
    tuple chains, and the table catalog. *)

val kind_items : int
(** Page kind tag of item-store pages, visible in [db status]. *)

val kind_table : int
(** Page kind tag of table tuple-chain pages. *)

val kind_catalog : int
(** Page kind tag of catalog pages. *)

val iter_chain :
  Buffer_pool.t -> first:int -> (int -> int -> string -> unit) -> unit
(** [iter_chain pool ~first f] calls [f page slot record] for every live
    record of the chain. *)

val page_records : Buffer_pool.t -> int -> string list * int
(** [page_records pool id] returns one chain page's live records in slot
    order together with the next page id (0 at the end of the chain) —
    the unit a pull-based scan cursor consumes, holding at most one page
    of the chain in working memory at a time. *)

val chain_pages : Buffer_pool.t -> first:int -> int
(** Number of pages in the chain rooted at [first] (0 when [first] is 0)
    — the I/O footprint a sequential scan pays.  The planner's cost
    model takes it from statistics and walks the chain only for a table
    that has none. *)

(** The item store: a string-keyed map to int values (absent reads 0),
    with an in-memory directory built at open and in-place updates whose
    page-LSN discipline implements the ARIES redo test. *)
module Items : sig
  type t

  val load : Buffer_pool.t -> t
  (** Scan the item chain (root in the pager header) and build the
      directory. *)

  val get : t -> string -> int

  val set : t -> lsn:int -> string -> int -> bool
  (** Apply a logged write: [false] when the item's page LSN already
      covers [lsn] (redo skip), [true] after applying and raising the
      page LSN. *)

  val all : t -> (string * int) list
  (** Sorted; items whose current value is 0 are omitted (reading an
      absent item yields 0, matching {!Transactions.Recovery.read}). *)

  val count : t -> int

  val page_lsns : t -> (int * int) list
  (** (page id, page LSN) down the item chain, in chain order — the
      engine compares these against the surviving log's end to spot
      stolen pages whose log records were lost. *)
end

val save_relation : Buffer_pool.t -> Relational.Relation.t -> int
(** Write the relation's tuples into a fresh chain; returns its first
    page id. *)

val iter_relation :
  Buffer_pool.t -> first:int -> (Relational.Tuple.t -> unit) -> int
(** [iter_relation pool ~first f] streams a table chain: it decodes each
    record and calls [f] on the tuple, page by page in chain order,
    without building a relation, and returns the number of pages walked
    (the {!chain_pages} count).  {!load_relation}, the planner's index
    builds and its statistics scan all read tables through it. *)

val load_relation :
  Buffer_pool.t -> schema:Relational.Schema.t -> first:int -> Relational.Relation.t
(** The whole chain as a relation, read with {!iter_relation}. *)

type table = { name : string; schema : Relational.Schema.t; first : int }
(** One catalog entry: table name, schema, and its chain's first page. *)

val catalog : Buffer_pool.t -> table list
(** All catalog entries, in catalog-chain order. *)

val add_table : Buffer_pool.t -> table -> unit
(** Append an entry to the catalog chain (no uniqueness check — see
    {!replace_table}). *)

val replace_table : Buffer_pool.t -> table -> unit
(** [replace_table] rewrites the catalog chain; the replaced table's data
    pages are leaked (no free list yet — see DESIGN.md). *)
