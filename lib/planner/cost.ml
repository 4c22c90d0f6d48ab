(* The cost model: Optimizer.estimate's textbook cardinality arithmetic
   extended with I/O terms priced off the buffer pool.  Costs are
   dimensionless work units; only their order matters, and the constants
   are chosen so the classic access-path trade-offs come out right:
     - index probes hit in-memory structures (lib/access), so they are
       priced as CPU work and beat even a one-page sequential scan when
       the predicate is selective;
     - a fence scan pays the pages it reads: the fence chain plus the
       data pages its estimated rows fill, one page at least;
     - a chain that fits in the buffer pool is charged the cached page
       rate, one that does not pays full reads;
     - hash join wins on unsorted inputs until its build side outgrows
       the memory budget, where its modeled spill passes let a merge
       join over index-ordered inputs take over (the crossover the bench
       sweeps). *)

module R = Relational
module A = R.Algebra
module P = Physical

type params = {
  pool_pages : int;
  page_io : float;
  page_cached : float;
  cpu_tuple : float;
  cpu_cmp : float;
  cpu_hash : float;
  probe_btree : float;
  probe_hash : float;
  hash_mem_tuples : int;
  sort_mem_tuples : int;
  tuples_per_page : float;
  range_selectivity : float;
  conjunct_selectivity : float;
  default_distinct : int;
}

let default ~pool_pages =
  {
    pool_pages;
    page_io = 4.0;
    page_cached = 0.2;
    cpu_tuple = 0.01;
    cpu_cmp = 0.02;
    cpu_hash = 0.03;
    probe_btree = 0.1;
    probe_hash = 0.05;
    hash_mem_tuples = 1024;
    sort_mem_tuples = 1024;
    tuples_per_page = 32.0;
    range_selectivity = 0.3;
    conjunct_selectivity = 0.3;
    default_distinct = 10;
  }

(* Distinct-value estimate for an attribute of a plan's output: resolved
   from base-table statistics when the attribute can be traced to a
   scan, the textbook join-key default otherwise. *)
let rec col_distinct p stats (plan : P.t) attr =
  let from_child c = col_distinct p stats c attr in
  match plan.P.node with
  | P.Scan { table; _ } -> (
      match Stats.find stats table with
      | Some tb -> (
          match Stats.distinct tb attr with
          | Some d -> d
          | None -> p.default_distinct)
      | None -> p.default_distinct)
  | P.Filter (_, c) | P.Project (_, c) | P.Sort { input = c; _ } ->
      from_child c
  | P.Rename_op _ | P.Const _ -> p.default_distinct
  | P.Hash_join { left; right; _ }
  | P.Merge_join { left; right; _ }
  | P.Nested_product (left, right) ->
      if R.Schema.mem left.P.schema attr then from_child left
      else if R.Schema.mem right.P.schema attr then from_child right
      else p.default_distinct
  | P.Union_op (a, _) | P.Inter_op (a, _) | P.Diff_op (a, _)
  | P.Divide_op (a, _) ->
      from_child a

let join_rows p stats left right on =
  let l = left.P.meta.P.est_rows and r = right.P.meta.P.est_rows in
  match on with
  | [] -> l *. r
  | _ ->
      let dv =
        List.fold_left
          (fun acc attr ->
            max acc
              (max
                 (col_distinct p stats left attr)
                 (col_distinct p stats right attr)))
          1 on
      in
      l *. r /. float_of_int dv

let io_pages p pages =
  let pages = float_of_int pages in
  if pages <= float_of_int p.pool_pages then pages *. p.page_cached
  else pages *. p.page_io

(* Fences a fence page holds: a page id and a tagged value each, so a
   couple of hundred for integer keys. *)
let fences_per_page = 200

let spill_pages p rows =
  2.0 *. (rows /. p.tuples_per_page) *. p.page_io

let sort_cost p rows =
  let n = Float.max rows 2.0 in
  let cmp = p.cpu_cmp *. n *. (Float.log n /. Float.log 2.0) in
  if rows > float_of_int p.sort_mem_tuples then cmp +. spill_pages p rows
  else cmp

let annotate p stats plan =
  let rec go (t : P.t) =
    let set rows cost =
      t.P.meta.P.est_rows <- Float.max rows 0.0;
      t.P.meta.P.est_cost <- cost
    in
    (match t.P.node with
    | P.Scan { table; access; pages } -> (
        let rows =
          match Stats.find stats table with
          | Some tb -> float_of_int tb.Stats.rows
          | None -> float_of_int pages *. p.tuples_per_page
        in
        let dv attr =
          match Stats.find stats table with
          | Some tb -> (
              match Stats.distinct tb attr with
              | Some d -> max d 1
              | None -> p.default_distinct)
          | None -> p.default_distinct
        in
        match access with
        | P.Full -> set rows (io_pages p pages +. (p.cpu_tuple *. rows))
        | P.Ordered _ ->
            (* a full walk of the in-memory index: the heap is still read
               once to build it, plus a comparison per step for the order *)
            set rows
              (io_pages p pages +. (p.cpu_tuple *. rows) +. (p.cpu_cmp *. rows))
        | P.Point { attr; via; _ } ->
            let out = rows /. float_of_int (dv attr) in
            let probe =
              match via with
              | Indexes.Btree -> p.probe_btree
              | Indexes.Hash -> p.probe_hash
            in
            set out (probe +. (p.cpu_tuple *. out))
        | P.Range _ ->
            let out = rows *. p.range_selectivity in
            set out (p.probe_btree +. (p.cpu_tuple *. out))
        | P.Fenced { attr; lo; hi } ->
            let out =
              match P.fence_point lo hi with
              | Some _ -> rows /. float_of_int (dv attr)
              | None -> rows *. p.range_selectivity
            in
            let per_page = rows /. float_of_int (max pages 1) in
            let data =
              min pages (1 + int_of_float (Float.ceil (out /. per_page)))
            in
            let fence = 1 + (pages / fences_per_page) in
            set out
              (io_pages p (fence + data)
              +. (p.cpu_tuple *. per_page *. float_of_int data)))
    | P.Filter (pred, c) ->
        go c;
        let n = List.length (A.conjuncts pred) in
        let sel = Float.pow p.conjunct_selectivity (float_of_int n) in
        set
          (c.P.meta.P.est_rows *. sel)
          (c.P.meta.P.est_cost
          +. (p.cpu_cmp *. c.P.meta.P.est_rows *. float_of_int (max n 1)))
    | P.Project (_, c) | P.Rename_op (_, c) ->
        go c;
        set c.P.meta.P.est_rows
          (c.P.meta.P.est_cost +. (p.cpu_tuple *. c.P.meta.P.est_rows))
    | P.Hash_join { left; right; on; build_left } ->
        go left;
        go right;
        let out = join_rows p stats left right on in
        let build =
          (if build_left then left else right).P.meta.P.est_rows
        in
        let total = left.P.meta.P.est_rows +. right.P.meta.P.est_rows in
        let spill =
          if build > float_of_int p.hash_mem_tuples then spill_pages p total
          else 0.0
        in
        set out
          (left.P.meta.P.est_cost +. right.P.meta.P.est_cost
          +. (p.cpu_hash *. total) +. (p.cpu_tuple *. out) +. spill)
    | P.Merge_join { left; right; on } ->
        go left;
        go right;
        let out = join_rows p stats left right on in
        let total = left.P.meta.P.est_rows +. right.P.meta.P.est_rows in
        set out
          (left.P.meta.P.est_cost +. right.P.meta.P.est_cost
          +. (p.cpu_cmp *. total) +. (p.cpu_tuple *. out))
    | P.Nested_product (a, b) ->
        go a;
        go b;
        let out = a.P.meta.P.est_rows *. b.P.meta.P.est_rows in
        set out
          (a.P.meta.P.est_cost +. b.P.meta.P.est_cost +. (p.cpu_tuple *. out))
    | P.Sort { input; _ } ->
        go input;
        set input.P.meta.P.est_rows
          (input.P.meta.P.est_cost +. sort_cost p input.P.meta.P.est_rows)
    | P.Union_op (a, b) | P.Inter_op (a, b) | P.Diff_op (a, b)
    | P.Divide_op (a, b) ->
        go a;
        go b;
        let la = a.P.meta.P.est_rows and lb = b.P.meta.P.est_rows in
        let out =
          match t.P.node with
          | P.Union_op _ -> la +. lb
          | P.Inter_op _ -> Float.min la lb
          | P.Diff_op _ -> la
          | _ -> la /. Float.max lb 1.0
        in
        set out
          (a.P.meta.P.est_cost +. b.P.meta.P.est_cost
          +. (p.cpu_tuple *. (la +. lb)))
    | P.Const _ -> set 1.0 p.cpu_tuple);
    ()
  in
  go plan
