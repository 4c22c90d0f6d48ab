(* The Volcano-style pull executor: every operator is a cursor with
   next/close, composed bottom-up from the physical plan.  Pipelined
   operators (scan, filter, project, the probe side of a hash join, the
   merge of a merge join) hold no more than a page or a group of tuples;
   blocking operators (sort, hash-join build, set operations, division)
   materialize exactly their own input.

   Internally streams are bag-valued; set semantics are restored when
   the root materializes into a Relation (whose tuple set dedups), which
   matches Eval.eval because every logical operator here is either
   duplicate-agnostic or materializes through Relation ops.

   Sorts past the spill threshold write sorted runs to temporary files
   (Codec-framed records) and merge them k-way — counted in the
   plan.spills counter. *)

module R = Relational
module A = R.Algebra
module P = Physical

type cursor = {
  next : unit -> R.Tuple.t option;
  close : unit -> unit;
}

let drain c =
  let out = ref [] in
  let rec loop () =
    match c.next () with
    | Some t ->
        out := t :: !out;
        loop ()
    | None -> ()
  in
  loop ();
  List.rev !out

let of_list tuples =
  let rest = ref tuples in
  {
    next =
      (fun () ->
        match !rest with
        | [] -> None
        | t :: tl ->
            rest := tl;
            Some t);
    close = ignore;
  }

(* Positions of [attrs] within [schema]. *)
let positions schema attrs =
  Array.of_list (List.map (R.Schema.index_of schema) attrs)

let key_compare a b = R.Tuple.compare a b

(* --- sort spill ---------------------------------------------------------- *)

let write_run tuples =
  let path = Filename.temp_file "dbmeta_sort" ".run" in
  let oc = open_out_bin path in
  List.iter
    (fun t ->
      let s = R.Codec.tuple_to_string t in
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 (Int32.of_int (String.length s));
      output_bytes oc b;
      output_string oc s)
    tuples;
  close_out oc;
  path

let run_reader path =
  let ic = open_in_bin path in
  let next () =
    match really_input_string ic 4 with
    | len_s ->
        let len = Int32.to_int (String.get_int32_le len_s 0) in
        Some (R.Codec.tuple_of_string (really_input_string ic len))
    | exception End_of_file -> None
  in
  let close () =
    close_in_noerr ic;
    (try Sys.remove path with Sys_error _ -> ())
  in
  (next, close)

let external_sort ~spills ~chunk cmp tuples =
  let rec chunks acc = function
    | [] -> List.rev acc
    | rest ->
        let taken, rest =
          let rec take k acc = function
            | xs when k = 0 -> (List.rev acc, xs)
            | [] -> (List.rev acc, [])
            | x :: tl -> take (k - 1) (x :: acc) tl
          in
          take chunk [] rest
        in
        chunks (taken :: acc) rest
  in
  let runs =
    List.map
      (fun c ->
        Obs.Registry.Counter.incr spills;
        write_run (List.stable_sort cmp c))
      (chunks [] tuples)
  in
  let readers = List.map run_reader runs in
  let heads =
    ref
      (List.filter_map
         (fun (next, close) ->
           match next () with
           | Some t -> Some (ref t, next, close)
           | None ->
               close ();
               None)
         readers)
  in
  let next () =
    match !heads with
    | [] -> None
    | first :: rest ->
        let best =
          List.fold_left
            (fun best ((t, _, _) as cand) ->
              let bt, _, _ = best in
              if cmp !t !bt < 0 then cand else best)
            first rest
        in
        let t, bnext, bclose = best in
        let out = !t in
        (match bnext () with
        | Some t' -> t := t'
        | None ->
            bclose ();
            heads := List.filter (fun (_, n, _) -> n != bnext) !heads);
        Some out
  in
  let close () = List.iter (fun (_, _, c) -> c ()) !heads in
  { next; close }

let sorted_cursor ctx on input_schema inner =
  let pos = positions input_schema on in
  let cmp a b = key_compare (R.Tuple.project a pos) (R.Tuple.project b pos) in
  let tuples = drain inner in
  inner.close ();
  let threshold = Plan.sort_spill ctx in
  if List.length tuples <= threshold then
    of_list (List.stable_sort cmp tuples)
  else
    external_sort
      ~spills:(Plan.instruments ctx).Plan.i_spills
      ~chunk:threshold cmp tuples

(* --- predicates ---------------------------------------------------------- *)

(* How a compiled predicate reads column [i] of a row: decoded, or
   compared with a constant as Value.compare would compare the decoded
   value (Type_clash included). *)
type 'row columns = {
  value : 'row -> int -> R.Value.t;
  compare : 'row -> int -> R.Value.t -> int;
}

let tuple_columns =
  { value = (fun t i -> t.(i)); compare = (fun t i c -> R.Value.compare t.(i) c) }

let record_columns = { value = R.Codec.column; compare = R.Codec.compare_column }

let holds cmp c =
  match cmp with
  | A.Eq -> c = 0
  | A.Ne -> c <> 0
  | A.Lt -> c < 0
  | A.Le -> c <= 0
  | A.Gt -> c > 0
  | A.Ge -> c >= 0

(* Compile [pred] over rows laid out by [schema], resolving attribute
   positions once; it agrees with Algebra.eval_predicate on every row.
   An attribute compared with a constant is compared in place; a
   constant-first leaf flips the sign, and on a type clash re-raises
   with the operands in the order Value.compare names them. *)
let compile cols schema pred =
  let pos a = R.Schema.index_of schema a in
  let rec go = function
    | A.True -> fun _ -> true
    | A.False -> fun _ -> false
    | A.Cmp (cmp, A.Attr a, A.Const c) ->
        let i = pos a in
        fun row -> holds cmp (cols.compare row i c)
    | A.Cmp (cmp, A.Const c, A.Attr a) ->
        let i = pos a in
        fun row ->
          holds cmp
            (match cols.compare row i c with
            | n -> -n
            | exception R.Value.Type_clash _ -> R.Value.compare c (cols.value row i))
    | A.Cmp (cmp, l, r) ->
        let operand = function
          | A.Const v -> fun _ -> v
          | A.Attr a ->
              let i = pos a in
              fun row -> cols.value row i
        in
        let l = operand l and r = operand r in
        fun row -> holds cmp (R.Value.compare (l row) (r row))
    | A.And (p, q) ->
        let p = go p and q = go q in
        fun row -> p row && q row
    | A.Or (p, q) ->
        let p = go p and q = go q in
        fun row -> p row || q row
    | A.Not p ->
        let p = go p in
        fun row -> not (p row)
  in
  go pred

(* --- scans --------------------------------------------------------------- *)

(* The scan of a table's whole chain, fused with the filter above it:
   each page is pinned once, every live record is validated and tested
   with [keep] where it lies, and only the records that pass are
   decoded, in chain and slot order.  [on_page n] hears how many records
   each page held.  Scans read the chains of the context's catalog
   snapshot (Indexes.table), never the live catalog: a table replaced
   while the context lives is read at the version the context planned
   against. *)
let fused_scan ctx table ~on_page keep =
  let pool = Storage.Engine.pool (Plan.engine ctx) in
  let view = R.Codec.view () in
  let page = ref (Indexes.table (Plan.indexes ctx) table).Storage.Heap.first in
  let rows = ref [] in
  let rec next () =
    match !rows with
    | t :: rest ->
        rows := rest;
        Some t
    | [] ->
        if !page = 0 then None
        else begin
          let examined = ref 0 and kept = ref [] in
          page :=
            Storage.Heap.scan_page pool !page view (fun v ->
                incr examined;
                if keep v then kept := R.Codec.tuple v :: !kept);
          on_page !examined;
          rows := List.rev !kept;
          next ()
        end
  in
  { next; close = ignore }

(* The per-operator counter plan.rows.<op>; the operator "*" names the
   family, which is how it is declared. *)
let plan_rows registry op =
  Obs.Registry.counter registry ~unit:"tuples"
    ~help:"rows emitted by this operator kind" ("plan.rows." ^ op)

let () = ignore (plan_rows Obs.Registry.declared "*")

(* Reset [p]'s actual_rows and return the function that adds to it and
   to its operator's plan.rows.<op> counter. *)
let row_counter ctx (p : P.t) =
  p.P.meta.P.actual_rows <- 0;
  let rows =
    plan_rows (Storage.Engine.metrics (Plan.engine ctx)) (P.operator_name p)
  in
  fun n ->
    p.P.meta.P.actual_rows <- p.P.meta.P.actual_rows + n;
    Obs.Registry.Counter.add rows n

(* A full scan counts, per page, every record it examined — with a
   filter fused in, the filter counts the survivors. *)
let full_scan ctx (scan : P.t) table pred =
  fused_scan ctx table ~on_page:(row_counter ctx scan)
    (compile record_columns scan.P.schema pred)

(* The least index in 0 .. n-1 satisfying the monotone [pred], or [n]. *)
let lower_bound n pred =
  let rec go l h =
    if l >= h then l
    else
      let m = (l + h) / 2 in
      if pred m then go l m else go (m + 1) h
  in
  go 0 n

(* A fence scan: the chain is sorted on its leading column, so only the
   pages from the last one whose fence is below [lo] (a key repeated
   across a page boundary may end it) up to the first one whose fence is
   past [hi] can match.  Each page is entered at its first row reaching
   [lo], and the scan ends at the first row past [hi].  Fences that
   failed validation fall back to walking the whole chain with the
   bounds as a filter. *)
let fence_scan ctx table attr ~lo ~hi =
  let eng = Plan.engine ctx and idx = Plan.indexes ctx in
  let schema = (Indexes.table idx table).Storage.Heap.schema in
  if R.Schema.index_of schema attr <> 0 then
    invalid_arg "Exec: fence scan on a column that does not lead the table";
  let reaches_lo v =
    match lo with None -> true | Some l -> R.Value.compare_poly v l >= 0
  and past_hi v =
    match hi with None -> false | Some h -> R.Value.compare_poly v h > 0
  in
  let in_bounds v = reaches_lo v && not (past_hi v) in
  match Indexes.fences eng idx ~table with
  | None ->
      Obs.Registry.Counter.incr (Plan.instruments ctx).Plan.i_fence_fallbacks;
      let c = fused_scan ctx table ~on_page:ignore (fun _ -> true) in
      let rec next () =
        match c.next () with
        | Some t when not (in_bounds t.(0)) -> next ()
        | r -> r
      in
      { next; close = c.close }
  | Some fences ->
      let n = Array.length fences in
      let key i = fences.(i).Storage.Heap.key in
      let i = ref (max 0 (lower_bound n (fun m -> reaches_lo (key m)) - 1)) in
      let rows = ref [||] and j = ref 0 in
      let rec next () =
        if !j < Array.length !rows then begin
          let t = !rows.(!j) in
          incr j;
          if past_hi t.(0) then begin
            (* sorted: nothing further matches *)
            i := n;
            j := Array.length !rows;
            None
          end
          else Some t
        end
        else if !i >= n || past_hi (key !i) then None
        else begin
          let page = Indexes.page eng idx fences.(!i).Storage.Heap.page in
          rows := page;
          j := lower_bound (Array.length page) (fun m -> reaches_lo page.(m).(0));
          incr i;
          next ()
        end
      in
      { next; close = ignore }

let scan_cursor ctx (scan : P.t) table access =
  let eng = Plan.engine ctx in
  let idx = Plan.indexes ctx in
  match access with
  | P.Point { attr; key; via = Indexes.Hash } ->
      of_list (Access.Hash_index.find (Indexes.hash eng idx ~table ~attr) key)
  | P.Point { attr; key; via = Indexes.Btree } ->
      of_list (Access.Btree.find (Indexes.btree eng idx ~table ~attr) key)
  | P.Range { attr; lo; hi } ->
      let t = Indexes.btree eng idx ~table ~attr in
      of_list
        (List.rev
           (Access.Btree.fold_range ?lo ?hi
              (fun _ payloads acc -> List.rev_append payloads acc)
              t []))
  | P.Ordered attr ->
      let t = Indexes.btree eng idx ~table ~attr in
      of_list
        (List.rev
           (Access.Btree.fold_range
              (fun _ payloads acc -> List.rev_append payloads acc)
              t []))
  | P.Fenced { attr; lo; hi } -> fence_scan ctx table attr ~lo ~hi
  | P.Full -> full_scan ctx scan table A.True

(* --- joins --------------------------------------------------------------- *)

(* Output assembly in logical order: left tuple ++ right-minus-shared,
   regardless of which side the hash join builds on. *)
let join_assembly left_schema right_schema on =
  let lkey = positions left_schema on in
  let rkey = positions right_schema on in
  let rrest =
    positions right_schema
      (List.filter
         (fun a -> not (List.mem a on))
         (R.Schema.attributes right_schema))
  in
  let combine l r = R.Tuple.concat l (R.Tuple.project r rrest) in
  (lkey, rkey, combine)

let hash_join_cursor left_c right_c left_schema right_schema on build_left =
  let lkey, rkey, combine = join_assembly left_schema right_schema on in
  let build_c, probe_c = if build_left then (left_c, right_c) else (right_c, left_c) in
  let build_key, probe_key = if build_left then (lkey, rkey) else (rkey, lkey) in
  let table = R.Tuple.Table.create 256 in
  List.iter
    (fun t -> R.Tuple.Table.add table (R.Tuple.project t build_key) t)
    (drain build_c);
  build_c.close ();
  let pending = ref [] in
  let rec next () =
    match !pending with
    | out :: rest ->
        pending := rest;
        Some out
    | [] -> (
        match probe_c.next () with
        | None -> None
        | Some probe ->
            let matches =
              R.Tuple.Table.find_all table (R.Tuple.project probe probe_key)
            in
            pending :=
              List.rev_map
                (fun built ->
                  if build_left then combine built probe
                  else combine probe built)
                matches;
            next ())
  in
  { next; close = probe_c.close }

(* Group a key-sorted cursor into (key, tuples) runs. *)
let grouped key_pos c =
  let lookahead = ref (c.next ()) in
  fun () ->
    match !lookahead with
    | None -> None
    | Some first ->
        let key = R.Tuple.project first key_pos in
        let group = ref [ first ] in
        let rec gather () =
          match c.next () with
          | Some t when key_compare (R.Tuple.project t key_pos) key = 0 ->
              group := t :: !group;
              gather ()
          | la ->
              lookahead := la;
              ()
        in
        gather ();
        Some (key, List.rev !group)

let merge_join_cursor left_c right_c left_schema right_schema on =
  let lkey, rkey, combine = join_assembly left_schema right_schema on in
  let lgroups = grouped lkey left_c in
  let rgroups = grouped rkey right_c in
  let lcur = ref (lgroups ()) in
  let rcur = ref (rgroups ()) in
  let pending = ref [] in
  let rec next () =
    match !pending with
    | out :: rest ->
        pending := rest;
        Some out
    | [] -> (
        match (!lcur, !rcur) with
        | None, _ | _, None -> None
        | Some (lk, lts), Some (rk, rts) ->
            let c = key_compare lk rk in
            if c < 0 then begin
              lcur := lgroups ();
              next ()
            end
            else if c > 0 then begin
              rcur := rgroups ();
              next ()
            end
            else begin
              pending :=
                List.concat_map
                  (fun l -> List.map (fun r -> combine l r) rts)
                  lts;
              lcur := lgroups ();
              rcur := rgroups ();
              next ()
            end)
  in
  let close () =
    left_c.close ();
    right_c.close ()
  in
  { next; close }

(* --- the operator dispatch ----------------------------------------------- *)

let rec open_plain ctx (p : P.t) : cursor =
  match p.P.node with
  | P.Scan { table; access; _ } -> scan_cursor ctx p table access
  | P.Filter (pred, ({ P.node = P.Scan { table; access = P.Full; _ }; _ } as scan))
    ->
      full_scan ctx scan table pred
  | P.Filter (pred, child) ->
      let keep = compile tuple_columns child.P.schema pred in
      let c = open_cursor ctx child in
      let rec next () =
        match c.next () with
        | None -> None
        | Some t as row -> if keep t then row else next ()
      in
      { next; close = c.close }
  | P.Project (attrs, child) ->
      let c = open_cursor ctx child in
      let pos = positions child.P.schema attrs in
      {
        next =
          (fun () ->
            match c.next () with
            | Some t -> Some (R.Tuple.project t pos)
            | None -> None);
        close = c.close;
      }
  | P.Rename_op (_, child) ->
      (* renaming changes the schema, not the tuples *)
      open_cursor ctx child
  | P.Hash_join { left; right; on; build_left } ->
      hash_join_cursor (open_cursor ctx left) (open_cursor ctx right)
        left.P.schema right.P.schema on build_left
  | P.Merge_join { left; right; on } ->
      merge_join_cursor (open_cursor ctx left) (open_cursor ctx right)
        left.P.schema right.P.schema on
  | P.Nested_product (a, b) ->
      let ca = open_cursor ctx a in
      let inner = Array.of_list (drain (open_cursor ctx b)) in
      let outer = ref None in
      let i = ref 0 in
      let rec next () =
        match !outer with
        | Some t when !i < Array.length inner ->
            let out = R.Tuple.concat t inner.(!i) in
            incr i;
            Some out
        | _ -> (
            match ca.next () with
            | None -> None
            | Some t ->
                outer := Some t;
                i := 0;
                if Array.length inner = 0 then None else next ())
      in
      { next; close = ca.close }
  | P.Sort { on; input } ->
      sorted_cursor ctx on input.P.schema (open_cursor ctx input)
  | P.Union_op (a, b) | P.Inter_op (a, b) | P.Diff_op (a, b)
  | P.Divide_op (a, b) ->
      let ra = materialize ctx a and rb = materialize ctx b in
      let result =
        match p.P.node with
        | P.Union_op _ -> R.Relation.union ra rb
        | P.Inter_op _ -> R.Relation.inter ra rb
        | P.Diff_op _ -> R.Relation.diff ra rb
        | _ -> R.Relation.divide ra rb
      in
      (* realign to this node's schema (set ops adopt the left operand's
         column order, which is exactly [p.schema]; divide preserves the
         dividend's order) *)
      of_list (R.Relation.to_list (R.Relation.project result (R.Schema.attributes p.P.schema)))
  | P.Const bindings -> of_list [ R.Tuple.make (List.map snd bindings) ]

(* Wrap a node's cursor so emitted rows are counted into its actual_rows
   annotation and the per-operator plan.rows.<op> counter.  A full scan
   counts itself, a page at a time. *)
and open_cursor ctx (p : P.t) : cursor =
  let inner = open_plain ctx p in
  match p.P.node with
  | P.Scan { access = P.Full; _ } -> inner
  | _ ->
      let count = row_counter ctx p in
      {
        next =
          (fun () ->
            match inner.next () with
            | Some _ as row ->
                count 1;
                row
            | None -> None);
        close = inner.close;
      }

and materialize ctx (p : P.t) =
  let c = open_cursor ctx p in
  let tuples = drain c in
  c.close ();
  R.Relation.of_tuples p.P.schema tuples

let run ctx plan =
  Obs.Registry.Counter.incr (Plan.instruments ctx).Plan.i_executions;
  Obs.Trace.with_span
    (Storage.Engine.trace (Plan.engine ctx))
    "plan.execute"
    (fun () -> materialize ctx plan)
