(* The physical plan algebra: what the planner chooses and the Volcano
   executor runs.  Every node carries its output schema (computed at
   compile time, so the executor never re-infers) and a mutable
   annotation slot for the cost model's estimates and the executor's
   actual row counts — the pair EXPLAIN renders and PL003 compares. *)

module R = Relational
module A = R.Algebra

type access =
  | Full
  | Ordered of string
  | Point of { attr : string; key : R.Value.t; via : Indexes.kind }
  | Range of { attr : string; lo : R.Value.t option; hi : R.Value.t option }
  | Fenced of { attr : string; lo : R.Value.t option; hi : R.Value.t option }

type meta = {
  mutable est_rows : float;
  mutable est_cost : float;
  mutable actual_rows : int;
}

type t = { node : node; schema : R.Schema.t; meta : meta }

and node =
  | Scan of { table : string; access : access; pages : int }
  | Filter of A.predicate * t
  | Project of string list * t
  | Rename_op of (string * string) list * t
  | Hash_join of { left : t; right : t; on : string list; build_left : bool }
  | Merge_join of { left : t; right : t; on : string list }
  | Nested_product of t * t
  | Sort of { on : string list; input : t }
  | Union_op of t * t
  | Inter_op of t * t
  | Diff_op of t * t
  | Divide_op of t * t
  | Const of (string * R.Value.t) list

let make node schema =
  { node; schema; meta = { est_rows = 0.; est_cost = 0.; actual_rows = -1 } }

let children t =
  match t.node with
  | Scan _ | Const _ -> []
  | Filter (_, c) | Project (_, c) | Rename_op (_, c) | Sort { input = c; _ } ->
      [ c ]
  | Hash_join { left; right; _ } | Merge_join { left; right; _ } ->
      [ left; right ]
  | Nested_product (a, b)
  | Union_op (a, b)
  | Inter_op (a, b)
  | Diff_op (a, b)
  | Divide_op (a, b) ->
      [ a; b ]

let operator_name t =
  match t.node with
  | Scan _ -> "scan"
  | Filter _ -> "filter"
  | Project _ -> "project"
  | Rename_op _ -> "rename"
  | Hash_join _ -> "hash_join"
  | Merge_join _ -> "merge_join"
  | Nested_product _ -> "product"
  | Sort _ -> "sort"
  | Union_op _ -> "union"
  | Inter_op _ -> "inter"
  | Diff_op _ -> "diff"
  | Divide_op _ -> "divide"
  | Const _ -> "const"

let bound_to_string pre = function
  | Some v -> R.Value.to_literal v
  | None -> pre

let fence_point lo hi =
  match (lo, hi) with
  | Some v, Some w when R.Value.equal v w -> Some v
  | _ -> None

let access_to_string table = function
  | Full -> Printf.sprintf "seq scan %s" table
  | Ordered attr -> Printf.sprintf "index order scan %s via btree(%s)" table attr
  | Point { attr; key; via } ->
      Printf.sprintf "index point scan %s via %s(%s = %s)" table
        (Indexes.kind_to_string via) attr (R.Value.to_literal key)
  | Range { attr; lo; hi } ->
      Printf.sprintf "index range scan %s via btree(%s in [%s, %s])" table attr
        (bound_to_string "-inf" lo) (bound_to_string "+inf" hi)
  | Fenced { attr; lo; hi } -> (
      match fence_point lo hi with
      | Some v ->
          Printf.sprintf "index point scan %s via fences(%s = %s)" table attr
            (R.Value.to_literal v)
      | None ->
          Printf.sprintf "index range scan %s via fences(%s in [%s, %s])" table
            attr (bound_to_string "-inf" lo) (bound_to_string "+inf" hi))

let label t =
  match t.node with
  | Scan { table; access; _ } -> access_to_string table access
  | Filter (p, _) -> Printf.sprintf "filter[%s]" (A.predicate_to_string p)
  | Project (attrs, _) ->
      Printf.sprintf "project[%s]" (String.concat ", " attrs)
  | Rename_op (m, _) ->
      Printf.sprintf "rename[%s]"
        (String.concat ", " (List.map (fun (a, b) -> a ^ " -> " ^ b) m))
  | Hash_join { on; build_left; _ } ->
      Printf.sprintf "hash join on (%s) build=%s" (String.concat ", " on)
        (if build_left then "left" else "right")
  | Merge_join { on; _ } ->
      Printf.sprintf "merge join on (%s)" (String.concat ", " on)
  | Nested_product _ -> "nested loop product"
  | Sort { on; _ } -> Printf.sprintf "sort[%s]" (String.concat ", " on)
  | Union_op _ -> "union"
  | Inter_op _ -> "intersect"
  | Diff_op _ -> "diff"
  | Divide_op _ -> "divide"
  | Const bindings ->
      Printf.sprintf "const <%s>"
        (String.concat ", "
           (List.map
              (fun (a, v) -> a ^ " = " ^ R.Value.to_literal v)
              bindings))

let annotation t =
  let m = t.meta in
  let actual =
    if m.actual_rows < 0 then "" else Printf.sprintf " rows=%d" m.actual_rows
  in
  Printf.sprintf "(est_rows=%.1f cost=%.1f%s)" m.est_rows m.est_cost actual

let to_text t =
  let b = Buffer.create 256 in
  let rec go indent t =
    Buffer.add_string b (String.make indent ' ');
    Buffer.add_string b (label t);
    Buffer.add_string b "  ";
    Buffer.add_string b (annotation t);
    Buffer.add_char b '\n';
    List.iter (go (indent + 2)) (children t)
  in
  go 0 t;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 256 in
  let rec go t =
    let m = t.meta in
    Buffer.add_string b
      (Printf.sprintf "{\"op\": %s, \"detail\": %s, \"est_rows\": %.1f, \"est_cost\": %.1f, \"actual_rows\": %s, \"children\": ["
         (Obs.Json.quote (operator_name t))
         (Obs.Json.quote (label t))
         m.est_rows m.est_cost
         (if m.actual_rows < 0 then "null" else string_of_int m.actual_rows));
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string b ", ";
        go c)
      (children t);
    Buffer.add_string b "]}"
  in
  go t;
  Buffer.contents b

let fold f init t =
  let rec go acc t = List.fold_left go (f acc t) (children t) in
  go init t
