(** The secondary-index catalog: which (table, column) pairs carry which
    access method.  Definitions persist in the reserved catalog table
    ["__indexes"] (managed by [db index create/drop]); the structures
    themselves are in-memory and rebuilt lazily from the heap, once per
    planning context — an honest limitation documented in
    docs/PLANNER.md ([lib/access] has no paged variant yet). *)

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
(** The persisted definitions (empty when none were ever created). *)

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
    over the heap on first use, cached for the catalog's lifetime).
    Only call for definitions present in {!defs}. *)

val hash :
  Storage.Engine.t -> t -> table:string -> attr:string ->
  Relational.Tuple.t Access.Hash_index.t
(** The built hash index for a defined index; same contract as
    {!btree}. *)
