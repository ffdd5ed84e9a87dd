(* Detector-accuracy campaigns: sweep detector parameter sets x seeded
   fault plans through the indulgent consensus runner and audit every
   run for the indulgence contract — agreement and validity must hold
   unconditionally, and every run whose plan is eventually stable
   (majority live at the end, no unhealed cut) must decide.  A run
   that is stable yet undecided is a livelock: with an honest detector
   the campaign must count zero of them, while the lying mutants are
   expected to produce them (liveness lost, safety intact). *)

type config = {
  plans : int;
  first_seed : int;
  n : int;
  params : Detect.Timeout.params list;  (** detector parameter grid *)
  mutant : Detect.Oracle.mutant;
  profile : Gen.profile;
  horizon_slack : int;
      (** virtual time granted past the plan horizon for recovery —
          capped timeouts and round backoff need room after a heal *)
  max_events : int;
}

let default_config ?(n = 4) () =
  {
    plans = 50;
    first_seed = 1;
    n;
    params = [ Detect.Timeout.default ];
    mutant = Detect.Oracle.Honest;
    profile = Gen.default ~n;
    horizon_slack = 3000;
    max_events = 400_000;
  }

(* Does the plan leave the network in a state where the detector can
   stabilise and a quorum can form?  No unhealed cut, and a strict
   majority of nodes up at the end.  (quiet_after is too strong: a
   permanently-crashed minority still stabilises.) *)
let eventually_stable ~n plan =
  let down = Hashtbl.create 8 in
  let cut = ref false in
  List.iter
    (fun { Plan.action; _ } ->
      match action with
      | Plan.Crash p -> Hashtbl.replace down p ()
      | Plan.Restart p -> Hashtbl.remove down p
      | Plan.Partition _ -> cut := true
      | Plan.Heal -> cut := false
      | _ -> ())
    plan;
  (not !cut) && 2 * (n - Hashtbl.length down) > n

type outcome = {
  plan_seed : int;
  params_ix : int;  (** index into the config's parameter grid *)
  plan : Plan.t;
  stable : bool;  (** {!eventually_stable} of the plan *)
  decided : bool;  (** every live node learned the decision *)
  agreement : bool;
  validity : bool;
  livelock : bool;  (** [stable && not decided] — must not happen honest *)
  decision_latency : int option;  (** virtual time of the first decision *)
  suspicions : int;
  false_suspicions : int;
  omega_stable_at : int option;
  heartbeats : int;
  virtual_time : int;
  engine_outcome : Dsim.Engine.outcome;
}

type report = outcome Sweep.report

let agreement_failures = Sweep.failures (fun o -> o.agreement)
let validity_failures = Sweep.failures (fun o -> o.validity)
let livelocks = Sweep.failures (fun o -> not o.livelock)

let run ?jobs ?on_outcome cfg =
  if cfg.params = [] then invalid_arg "Detect_campaign.run: empty parameter grid";
  Sweep.run ?jobs ?on_outcome
    ~cells:(List.mapi (fun i p -> (i, p)) cfg.params)
    ~first_seed:cfg.first_seed ~plans:cfg.plans (fun (params_ix, params) ~seed ->
      let plan = Gen.generate { cfg.profile with Gen.n = cfg.n } ~seed in
      let r =
        Detect.Runner.run ~n:cfg.n ~seed:(Int64.of_int seed) ~params
          ~mutant:cfg.mutant
          ~horizon:(cfg.profile.Gen.horizon + cfg.horizon_slack)
          ~max_events:cfg.max_events ~quiet:true
          ~install:(fun f -> Interp.install_detect plan f)
          ()
      in
      let stable = eventually_stable ~n:cfg.n plan in
      {
        plan_seed = seed;
        params_ix;
        plan;
        stable;
        decided = r.Detect.Runner.all_live_decided;
        agreement = r.Detect.Runner.agreement_ok;
        validity = r.Detect.Runner.validity_ok;
        livelock = stable && not r.Detect.Runner.all_live_decided;
        decision_latency = r.Detect.Runner.first_decision;
        suspicions = r.Detect.Runner.suspicions;
        false_suspicions = r.Detect.Runner.false_suspicions;
        omega_stable_at = r.Detect.Runner.omega_stable_at;
        heartbeats = r.Detect.Runner.heartbeats_sent;
        virtual_time = r.Detect.Runner.virtual_time;
        engine_outcome = r.Detect.Runner.outcome;
      })

(* The counters are folds over the outcomes; only the timing line in
   [pp_report] is nondeterministic. *)
let pp_report_stable ppf r =
  let count p = List.length (List.filter p r.Sweep.outcomes) in
  let sum f = List.fold_left (fun a o -> a + f o) 0 r.outcomes in
  let mean f =
    match List.filter_map f r.outcomes with
    | [] -> "-"
    | xs ->
        Printf.sprintf "%.1f"
          (float_of_int (List.fold_left ( + ) 0 xs)
          /. float_of_int (List.length xs))
  in
  let suspicions = sum (fun o -> o.suspicions) in
  let false_suspicions = sum (fun o -> o.false_suspicions) in
  Sweep.pp_faults "detect" (fun o -> [ o.plan ]) ppf r;
  Format.fprintf ppf
    "  stable plans: %d/%d, decided runs: %d, livelocked stable runs: %d@."
    (count (fun o -> o.stable))
    r.runs
    (count (fun o -> o.decided))
    (List.length (livelocks r));
  Format.fprintf ppf "  agreement failures: %d, validity failures: %d@."
    (List.length (agreement_failures r))
    (List.length (validity_failures r));
  Format.fprintf ppf
    "  suspicions: %d (false: %d, rate %.3f), heartbeats: %d@." suspicions
    false_suspicions
    (if suspicions = 0 then 0.
     else float_of_int false_suspicions /. float_of_int suspicions)
    (sum (fun o -> o.heartbeats));
  Format.fprintf ppf
    "  mean decision latency: %s, mean time-to-omega-stability: %s@."
    (mean (fun o -> o.decision_latency))
    (mean (fun o -> o.omega_stable_at));
  let dump fmt os =
    List.iter (fun o -> Format.fprintf ppf fmt o.params_ix o.plan_seed) os
  in
  dump "  AGREEMENT VIOLATION: params %d seed %d@." (agreement_failures r);
  dump "  VALIDITY VIOLATION: params %d seed %d@." (validity_failures r);
  dump "  LIVELOCK: params %d seed %d (stable plan, undecided)@." (livelocks r)

let pp_report ppf r =
  pp_report_stable ppf r;
  Sweep.pp_timing ppf r
