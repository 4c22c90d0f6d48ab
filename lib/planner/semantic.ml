(* Chase-based join elimination: the semantic rewrite that pays for the
   metatheory.  Keys the catalog statistics show (a column whose
   distinct count equals the row count) become functional dependencies;
   the query's conjunctive core under those dependencies — chase, then
   minimize — can have strictly fewer relation atoms than the query
   joins, and when the smaller body is realizable as algebra with the
   same schema, the join is provably redundant and dropped before
   physical compilation. *)

module R = Relational
module A = R.Algebra
module C = Datalog.Containment
module I = Datalog.Interop

let fds_of_stats catalog stats =
  List.concat_map
    (fun (table, t) ->
      match (try Some (catalog table : R.Schema.t) with _ -> None) with
      | None -> []
      | Some schema ->
          let attrs = R.Schema.attributes schema in
          let positions = List.mapi (fun i a -> (i, a)) attrs in
          if t.Stats.rows <= 0 then []
          else
            List.filter_map
              (fun (i, a) ->
                match Stats.distinct t a with
                | Some d when d = t.Stats.rows ->
                    Some
                      {
                        C.fd_pred = table;
                        fd_lhs = [ i ];
                        fd_rhs =
                          List.filter_map
                            (fun (j, _) -> if j <> i then Some j else None)
                            positions;
                      }
                | _ -> None)
              positions)
    stats

let real_atoms body = List.filter (fun a -> not (I.is_comparison_atom a)) body

(* The rewrite is accepted only if it provably changes nothing: same
   schema, and equivalent under the dependencies when translated back —
   a failed proof means we keep the original query, never a diagnostic
   here (Certify re-checks the accepted rewrite independently). *)
let try_eliminate catalog fds expr body binding =
  let before = List.length (real_atoms body) in
  if before < 2 then None
  else
    let schema = A.schema_of catalog expr in
    let attrs = R.Schema.attributes schema in
    let head = List.map (fun a -> List.assoc a binding) attrs in
    match C.chase_opt fds { C.head; body } with
    | None -> None (* empty under the fds; the lint reports, the plan stands *)
    | Some chased -> (
        let core = C.minimize chased in
        let after = List.length (real_atoms core.C.body) in
        if after >= before then None
        else
          let out = List.combine attrs core.C.head in
          match I.algebra_of_cq catalog ~out core.C.body with
          | None -> None
          | Some rewritten ->
              let same_schema =
                try R.Schema.equal (A.schema_of catalog rewritten) schema
                with _ -> false
              in
              let certified =
                match I.spj_of_algebra catalog rewritten with
                | I.Spj { body = body'; binding = binding' } ->
                    C.equivalent_under fds
                      (I.saturate (I.canonical_cq binding body))
                      (I.saturate (I.canonical_cq binding' body'))
                | I.Spj_empty _ | I.Spj_outside _ -> false
              in
              if same_schema && certified then
                Some (rewritten, before - after)
              else None)

let rec eliminate_joins catalog fds expr =
  match I.spj_of_algebra catalog expr with
  | I.Spj { body; binding } -> (
      match try_eliminate catalog fds expr body binding with
      | Some (rewritten, dropped) -> (rewritten, dropped)
      | None -> (expr, 0))
  | I.Spj_empty _ -> (expr, 0)
  | I.Spj_outside _ -> (
      let recurse = eliminate_joins catalog fds in
      let unary mk e =
        let e', n = recurse e in
        ((if n = 0 then expr else mk e'), n)
      in
      let binary mk a b =
        let a', na = recurse a in
        let b', nb = recurse b in
        ((if na + nb = 0 then expr else mk a' b'), na + nb)
      in
      match expr with
      | A.Select (p, e) -> unary (fun e -> A.Select (p, e)) e
      | A.Project (attrs, e) -> unary (fun e -> A.Project (attrs, e)) e
      | A.Rename (m, e) -> unary (fun e -> A.Rename (m, e)) e
      | A.Union (a, b) -> binary (fun a b -> A.Union (a, b)) a b
      | A.Inter (a, b) -> binary (fun a b -> A.Inter (a, b)) a b
      | A.Diff (a, b) -> binary (fun a b -> A.Diff (a, b)) a b
      | A.Divide (a, b) -> binary (fun a b -> A.Divide (a, b)) a b
      | A.Product (a, b) -> binary (fun a b -> A.Product (a, b)) a b
      | A.Join (a, b) -> binary (fun a b -> A.Join (a, b)) a b
      | A.Rel _ | A.Singleton _ -> (expr, 0))
