(* Nemesis sweeps for the universal construction: every object in the
   registry, over every requested backend, under [plans] generated
   fault plans each — with the Wing–Gong linearizability gate on every
   run, on top of the order/digest/durability gates the KV campaign
   already applies. *)

type config = {
  backends : Rsm.Backend.t list;
  objects : string list;
  plans : int;
  first_seed : int;
  n : int;
  clients : int;
  commands : int;
  batch : int;
  profile : Gen.profile;
  storage : bool;
  drop_nth : int option;
}

let default_config ?(n = 5) () =
  {
    backends = [ Rsm.Backend.ben_or ];
    objects = Obj.Registry.names;
    plans = 5;
    first_seed = 1;
    n;
    clients = 3;
    commands = 4;
    batch = 4;
    profile = Gen.default ~n;
    storage = false;
    drop_nth = None;
  }

type outcome = {
  summary : Workload.Obj_load.summary;
  plan_seed : int;
  plan : Plan.t;
}

type report = outcome Sweep.report

let failures = Sweep.failures (fun o -> o.summary.Workload.Obj_load.ok)

let wg_failures =
  Sweep.failures (fun o -> o.summary.Workload.Obj_load.wg_violations = [])

let run ?jobs ?on_outcome cfg =
  let profile =
    { cfg.profile with n = cfg.n; storage = cfg.profile.storage || cfg.storage }
  in
  let cells =
    List.concat_map
      (fun object_name -> List.map (fun b -> (object_name, b)) cfg.backends)
      cfg.objects
  in
  Sweep.run ?jobs ?on_outcome ~cells ~first_seed:cfg.first_seed
    ~plans:cfg.plans (fun (object_name, backend) ~seed ->
      let plan = Gen.generate profile ~seed in
      let summary =
        Workload.Obj_load.run ~n:cfg.n ~clients:cfg.clients
          ~commands:cfg.commands ~batch:cfg.batch ~seed ~quiet:true
          ~trace_capacity:2_000 ~ack_timeout:400 ~max_events:400_000
          ~inject:
            { Workload.Obj_load.inject = (fun f -> Interp.install_rsm plan f) }
          ?store:
            (if cfg.storage then Some Rsm.Runner.default_store_config else None)
          ?drop_nth:cfg.drop_nth ~backend ~object_name ()
      in
      { summary; plan_seed = seed; plan })

let pp_report_stable ppf r =
  Format.fprintf ppf "object campaign: %d runs, %d failures (%d linearizability)@."
    r.Sweep.runs
    (List.length (failures r))
    (List.length (wg_failures r));
  let name o = o.summary.Workload.Obj_load.object_name in
  List.iter
    (fun object_name ->
      let mine = List.filter (fun o -> name o = object_name) r.outcomes in
      let bad = List.filter (fun o -> not o.summary.Workload.Obj_load.ok) mine in
      Format.fprintf ppf "  %-8s %d runs, %d failures@." object_name
        (List.length mine) (List.length bad))
    (List.sort_uniq compare (List.map name r.outcomes));
  List.iter
    (fun o ->
      Format.fprintf ppf "  FAIL %s/%s seed=%d (%d actions): %s@." (name o)
        o.summary.Workload.Obj_load.backend_name o.plan_seed (Plan.length o.plan)
        (match o.summary.Workload.Obj_load.wg_violations with
        | v :: _ -> v
        | [] -> "order/digest gate"))
    (failures r)

let pp_report ppf r =
  pp_report_stable ppf r;
  Sweep.pp_timing ppf r
