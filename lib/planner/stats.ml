(* Selinger-style per-table statistics: row count, page count, and a
   distinct-value count per column.  They live in the catalog, as System
   R kept them: Storage.Heap.save_relation counts them while it writes a
   table's rows, and the catalog entry that publishes the table carries
   them.  Tables change only by whole replacement, so an entry's
   statistics are exact for as long as it stands, and this module is a
   view of a catalog snapshot. *)

module R = Relational

type column = { attr : string; distinct : int }
type table = { rows : int; pages : int; columns : column list }
type t = (string * table) list

let find t name = List.assoc_opt name t

let distinct table attr =
  List.find_map
    (fun c -> if c.attr = attr then Some c.distinct else None)
    table.columns

let of_catalog entries =
  List.filter_map
    (fun { Storage.Heap.name; schema; stats; _ } ->
      Option.map
        (fun { Storage.Heap.rows; pages; distinct } ->
          let column attr distinct = { attr; distinct } in
          (name, { rows; pages; columns = List.map2 column (R.Schema.attributes schema) distinct }))
        stats)
    entries
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let load eng = of_catalog (Storage.Engine.tables eng)

let analyze eng names =
  Obs.Trace.with_span (Storage.Engine.trace eng) "plan.analyze" (fun () ->
      Storage.Engine.add_stats eng names;
      load eng)

let row_stats t name = match find t name with Some tb -> tb.rows | None -> 100
