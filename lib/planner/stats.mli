(** Per-table statistics for the cost-based planner, in the System R
    tradition: row count, heap page count, and a per-column
    distinct-value count.  They are kept in the catalog:
    {!Storage.Engine.save_table} counts them while it writes a table and
    publishes them in the table's catalog entry, with the same root
    switch, so they are exact whenever they are present.  This module is
    a view of a catalog snapshot.  Only a table an older binary wrote
    has none; it is priced by pages in {!Cost} until it is replaced or
    {!analyze}d. *)

type column = { attr : string; distinct : int }
(** One column's statistics: its name and the number of distinct values
    it holds (the denominator of the equality-selectivity estimate
    [rows / distinct]). *)

type table = { rows : int; pages : int; columns : column list }
(** One table's statistics: tuple count, heap chain length in pages (the
    I/O a sequential scan pays), and per-column distinct counts. *)

type t = (string * table) list
(** Statistics for a set of tables, sorted by table name. *)

val find : t -> string -> table option
(** Statistics for one table, if its entry has them. *)

val distinct : table -> string -> int option
(** Distinct-value count of one column, if known. *)

val of_catalog : Storage.Heap.table list -> t
(** The statistics the given catalog entries carry; entries without
    any are left out. *)

val load : Storage.Engine.t -> t
(** The statistics of the engine's public catalog entries
    ({!Storage.Engine.tables}); reads the catalog only. *)

val analyze : Storage.Engine.t -> string list -> t
(** [analyze eng names] makes sure each named table's catalog entry has
    statistics ({!Storage.Engine.add_stats}) and returns {!load}'s view.
    For a table whose entry has them, which is every table this binary
    wrote, it reads no data page and writes nothing; a table an older
    binary wrote is counted from its chain and published with one
    catalog-only root switch.  Recorded as a [plan.analyze] span on the
    engine's trace. *)

val row_stats : t -> Relational.Optimizer.stats
(** Adapt to the logical optimizer's cardinality interface: a table's
    row count, or 100 for tables without statistics. *)
