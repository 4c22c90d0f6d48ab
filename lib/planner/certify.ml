(* Translation validation for the planner: replay every rewrite stage
   the plan pipeline ran (selection push-down, join ordering, projection
   pruning, chase-based join elimination) plus the physical plan's
   logical shadow, and prove each step equivalent to its predecessor by
   Chandra–Merlin containment with a chase fallback under the
   statistics-recorded dependencies.  The prover is sound: [Equivalent]
   is a proof; [Refuted] is a counterexample on the pure conjunctive
   fragment (where containment is decidable and the test complete);
   anything the fragment cannot settle is [Skipped], never silently
   passed. *)

module R = Relational
module A = R.Algebra
module P = Physical
module C = Datalog.Containment
module I = Datalog.Interop

type verdict = Equivalent | Refuted of string | Skipped of string

type stage = { name : string; verdict : verdict }
type report = stage list

let ok report =
  not (List.exists (fun s -> match s.verdict with Refuted _ -> true | _ -> false) report)

let verdict_to_string = function
  | Equivalent -> "equivalent"
  | Refuted msg -> "refuted: " ^ msg
  | Skipped msg -> "skipped: " ^ msg

(* The logical reading of a physical plan.  Index access paths re-become
   the selections they absorbed: a point lookup (B+tree, hash, or fences
   with equal bounds) is an equality selection, a range scan the
   inclusive bounds it enforces (strict bounds stayed behind in the
   residual filter, which shadows separately).  Sort is an identity at
   the relation level. *)
let rec shadow (p : P.t) =
  match p.P.node with
  | P.Scan { table; access; _ } -> (
      let base = A.Rel table in
      match access with
      | P.Full | P.Ordered _ -> base
      | P.Point { attr; key; _ } ->
          A.Select (A.Cmp (A.Eq, A.Attr attr, A.Const key), base)
      | P.Fenced { attr; lo; hi } when P.fence_point lo hi <> None ->
          A.Select (A.Cmp (A.Eq, A.Attr attr, A.Const (Option.get lo)), base)
      | P.Range { attr; lo; hi } | P.Fenced { attr; lo; hi } ->
          let bound cmp = function
            | Some v -> [ A.Cmp (cmp, A.Attr attr, A.Const v) ]
            | None -> []
          in
          A.Select (A.conjoin (bound A.Ge lo @ bound A.Le hi), base))
  | P.Filter (pred, i) -> A.Select (pred, shadow i)
  | P.Project (attrs, i) -> A.Project (attrs, shadow i)
  | P.Rename_op (m, i) -> A.Rename (m, shadow i)
  | P.Hash_join { left; right; _ } -> A.Join (shadow left, shadow right)
  | P.Merge_join { left; right; _ } -> A.Join (shadow left, shadow right)
  | P.Nested_product (a, b) -> A.Product (shadow a, shadow b)
  | P.Sort { input; _ } -> shadow input
  | P.Union_op (a, b) -> A.Union (shadow a, shadow b)
  | P.Inter_op (a, b) -> A.Inter (shadow a, shadow b)
  | P.Diff_op (a, b) -> A.Diff (shadow a, shadow b)
  | P.Divide_op (a, b) -> A.Divide (shadow a, shadow b)
  | P.Const bindings -> A.Singleton bindings

(* Normalize before comparing: push_selections distributes selections
   into union/intersection/difference arms, so a pre-rewrite
   [Select (p, Union (a, b))] and its post-rewrite image would otherwise
   disagree at the top constructor.  Distributing on both sides makes
   the set-operator skeletons line up; the arms are then conjunctive and
   the homomorphism test takes over. *)
let rec distribute e =
  match e with
  | A.Select (p, i) -> (
      match distribute i with
      | A.Union (x, y) ->
          A.Union (distribute (A.Select (p, x)), distribute (A.Select (p, y)))
      | A.Inter (x, y) ->
          A.Inter (distribute (A.Select (p, x)), distribute (A.Select (p, y)))
      | A.Diff (x, y) ->
          A.Diff (distribute (A.Select (p, x)), distribute (A.Select (p, y)))
      | i' -> A.Select (p, i'))
  | A.Project (xs, i) -> A.Project (xs, distribute i)
  | A.Rename (m, i) -> A.Rename (m, distribute i)
  | A.Product (x, y) -> A.Product (distribute x, distribute y)
  | A.Join (x, y) -> A.Join (distribute x, distribute y)
  | A.Union (x, y) -> A.Union (distribute x, distribute y)
  | A.Inter (x, y) -> A.Inter (distribute x, distribute y)
  | A.Diff (x, y) -> A.Diff (distribute x, distribute y)
  | A.Divide (x, y) -> A.Divide (distribute x, distribute y)
  | A.Rel _ | A.Singleton _ -> e

let has_comparisons body = List.exists I.is_comparison_atom body

(* A conjunctive query provably empty on every instance satisfying the
   dependencies: a self-contradictory comparison pseudo-atom, or a chase
   failure (conflicting constants forced equal), or a contradiction the
   chase surfaces by equating comparison arguments. *)
let provably_empty fds binding body =
  match I.comparison_contradiction body with
  | Some _ -> true
  | None -> (
      match C.chase_opt fds (I.canonical_cq binding body) with
      | None -> true
      | Some chased -> I.comparison_contradiction chased.C.body <> None)

let spj_verdict fds (binding_a, body_a) (binding_b, body_b) =
  let attrs binding = List.sort compare (List.map fst binding) in
  if attrs binding_a <> attrs binding_b then
    Refuted "output attributes differ"
  else
    let qa = I.saturate (I.canonical_cq binding_a body_a) in
    let qb = I.saturate (I.canonical_cq binding_b body_b) in
    if C.equivalent_under fds qa qb then Equivalent
    else if has_comparisons body_a || has_comparisons body_b then
      Skipped "equivalence not provable in the comparison fragment"
    else
      Refuted
        "conjunctive cores are not equivalent under the recorded dependencies"

(* Stacked selections over a non-conjunctive operand: peel and compare
   the conjunct multisets, then recurse into the operands. *)
let peel_selections e =
  let rec go acc = function
    | A.Select (p, i) -> go (A.conjuncts p @ acc) i
    | i -> (acc, i)
  in
  go [] e

let rec equiv catalog fds a b =
  match (I.spj_of_algebra catalog a, I.spj_of_algebra catalog b) with
  | ( I.Spj { binding = binding_a; body = body_a },
      I.Spj { binding = binding_b; body = body_b } ) ->
      spj_verdict fds (binding_a, body_a) (binding_b, body_b)
  | I.Spj_empty _, I.Spj_empty _ -> Equivalent
  | I.Spj_empty _, I.Spj { binding; body }
  | I.Spj { binding; body }, I.Spj_empty _ ->
      if provably_empty fds binding body then Equivalent
      else if has_comparisons body then
        Skipped "emptiness not provable in the comparison fragment"
      else Refuted "one side is empty, the other has a satisfiable core"
  | (I.Spj_outside op, _ | _, I.Spj_outside op) -> (
      let ca, ia = peel_selections a and cb, ib = peel_selections b in
      if ca <> [] || cb <> [] then
        if List.sort compare ca = List.sort compare cb then
          equiv catalog fds ia ib
        else Skipped "selection predicates differ structurally"
      else
        match (a, b) with
        | A.Union (a1, a2), A.Union (b1, b2)
        | A.Inter (a1, a2), A.Inter (b1, b2)
        | A.Diff (a1, a2), A.Diff (b1, b2)
        | A.Divide (a1, a2), A.Divide (b1, b2) ->
            join_verdicts
              (equiv catalog fds a1 b1)
              (equiv catalog fds a2 b2)
        | A.Project (xs, a'), A.Project (ys, b') when xs = ys ->
            equiv catalog fds a' b'
        | A.Rename (m, a'), A.Rename (n, b') when m = n ->
            equiv catalog fds a' b'
        | _ -> Skipped ("outside the certifiable fragment: " ^ op))

and join_verdicts v1 v2 =
  match (v1, v2) with
  | (Refuted _ as r), _ | _, (Refuted _ as r) -> r
  | (Skipped _ as s), _ | _, (Skipped _ as s) -> s
  | Equivalent, Equivalent -> Equivalent

let check catalog fds name before after =
  { name; verdict = equiv catalog fds (distribute before) (distribute after) }

let certify ctx expr physical =
  let catalog = Plan.catalog ctx in
  let stats = Plan.stats ctx in
  let fds = Semantic.fds_of_stats catalog stats in
  let cfg = Plan.config ctx in
  let ins = Plan.instruments ctx in
  let steps = ref [] in
  let record name before after =
    let step = check catalog fds name before after in
    Obs.Registry.Counter.incr ins.Plan.i_certify_stages;
    (match step.verdict with
    | Refuted _ -> Obs.Registry.Counter.incr ins.Plan.i_certify_failures
    | Skipped _ -> Obs.Registry.Counter.incr ins.Plan.i_certify_skipped
    | Equivalent -> ());
    steps := step :: !steps;
    after
  in
  Obs.Trace.with_span
    (Storage.Engine.trace (Plan.engine ctx))
    "plan.certify"
    (fun () ->
      let logical =
        if cfg.Plan.optimize then begin
          let rows = Stats.row_stats stats in
          let pushed = R.Optimizer.push_selections catalog expr in
          let pushed = record "push_selections" expr pushed in
          let ordered = R.Optimizer.order_joins catalog rows pushed in
          let ordered = record "order_joins" pushed ordered in
          let pruned = R.Optimizer.prune_projections catalog ordered in
          record "prune_projections" ordered pruned
        end
        else expr
      in
      let logical =
        if cfg.Plan.semantic then begin
          let rewritten, _ = Semantic.eliminate_joins catalog fds logical in
          record "join_elimination" logical rewritten
        end
        else logical
      in
      ignore (record "physical_shadow" logical (shadow physical) : A.t);
      List.rev !steps)
