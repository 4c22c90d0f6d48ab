(** The secondary-index catalog: which (table, column) pairs carry which
    access method.  Definitions persist in the reserved catalog table
    ["__indexes"] (managed by [db index create/drop]); the structures
    themselves are in-memory and rebuilt lazily from the heap, once per
    planning context — an honest limitation documented in
    docs/PLANNER.md ([lib/access] has no paged variant).

    A loaded catalog is also a planning context's snapshot of the
    tables: {!load} records every public catalog entry, and index
    builds, heap scans and fence scans all read the chains those entries
    name, so a table replaced while the context lives is read at one
    version.  Fences and the data pages a fence scan decodes are cached
    beside the built structures for the catalog's lifetime. *)

type kind = Btree | Hash
(** The two access methods of [lib/access]: B+trees answer point and
    range lookups in key order, hash indexes answer point lookups
    only. *)

type def = { table : string; attr : string; kind : kind }
(** One index definition. *)

type t
(** A loaded index catalog plus its cache of built structures. *)

exception Index_error of string
(** Raised by {!create}/{!drop} on duplicate definitions, unknown
    tables, or unknown columns — a user input error (CLI exit 2). *)

val catalog_table : string
(** The reserved catalog table definitions persist in (["__indexes"]). *)

val kind_to_string : kind -> string
(** ["btree"] or ["hash"]. *)

val kind_of_string : string -> kind option
(** Inverse of {!kind_to_string}. *)

val load : Storage.Engine.t -> t
(** The persisted definitions (empty when none were ever created) and a
    snapshot of the public catalog entries ({!Storage.Engine.tables}),
    both from one read of the catalog. *)

val tables : t -> Storage.Heap.table list
(** The catalog snapshot taken by {!load}, in catalog order: every
    public entry, with its fences and statistics. *)

val table : t -> string -> Storage.Heap.table
(** One entry of the catalog snapshot taken by {!load}; raises
    {!Relational.Database.Unknown_relation} for a name it does not
    hold. *)

val defs : t -> def list
(** All definitions, sorted by (table, attr, kind). *)

val on : t -> table:string -> attr:string -> def list
(** The indexes available on one column. *)

val create : Storage.Engine.t -> t -> def -> unit
(** Add a definition and persist the catalog.  Raises {!Index_error} on
    a duplicate, an unknown table, or an unknown column. *)

val drop : Storage.Engine.t -> t -> def -> unit
(** Remove a definition and persist the catalog.  Raises {!Index_error}
    when no such index exists. *)

val btree :
  Storage.Engine.t -> t -> table:string -> attr:string ->
  Relational.Tuple.t Access.Btree.t
(** The built B+tree for a defined index (bulk-loaded from one pass
    over the snapshot's chain on first use, cached for the catalog's
    lifetime).  Only call for definitions present in {!defs}. *)

val hash :
  Storage.Engine.t -> t -> table:string -> attr:string ->
  Relational.Tuple.t Access.Hash_index.t
(** The built hash index for a defined index; same contract as
    {!btree}. *)

val fences :
  Storage.Engine.t -> t -> table:string -> Storage.Heap.fence array option
(** The snapshot entry's validated fences ({!Storage.Heap.read_fences}):
    read on first use, cached for the catalog's lifetime.  [None] for a
    one-page table and for fences that failed validation. *)

val page : Storage.Engine.t -> t -> int -> Relational.Tuple.t array
(** One data page's tuples in slot order, decoded on first use through
    the buffer pool and cached for the catalog's lifetime — what a fence
    scan reads. *)
