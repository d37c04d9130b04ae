/* The observatory dashboard: render the repo's JSON artifacts.
 * Vanilla JS + CSS grids + inline SVG only — the server is stdlib
 * http.server and the dashboard must match it in dependency weight. */
"use strict";

const $ = (id) => document.getElementById(id);

function el(tag, cls, text) {
  const node = document.createElement(tag);
  if (cls) node.className = cls;
  if (text !== undefined) node.textContent = text;
  return node;
}

function fmt(x, digits) {
  if (x === null || x === undefined || Number.isNaN(x)) return "-";
  if (x === 0) return "0";
  const a = Math.abs(x);
  if (a >= 0.01 && a < 10000) return x.toFixed(digits === undefined ? 3 : digits);
  return x.toExponential(2);
}

/* regret 1.0 -> green, 1.5+ -> red, in-between blended via amber */
function regretColor(r) {
  if (r === null || r === undefined) return "#2a3240";
  const t = Math.max(0, Math.min(1, (r - 1.0) / 0.5));
  const stops = [[52, 163, 95], [201, 162, 39], [197, 69, 69]];
  const seg = t < 0.5 ? 0 : 1;
  const u = (t - seg * 0.5) * 2;
  const mix = stops[seg].map((c, i) => Math.round(c + (stops[seg + 1][i] - c) * u));
  return `rgb(${mix[0]},${mix[1]},${mix[2]})`;
}

/* chaos verdicts (repro.chaos.executor.VERDICTS), for the fixed grid
 * and the autopilot alike */
const VERDICT_COLORS = {
  "ok": "#34a35f",
  "diagnosed-fault": "#5b9dd9",
  "silent-corruption": "#c54545",
  "undiagnosed-hang": "#c54545",
  "sim-runtime-divergence": "#c9762c",
  "regret-outlier": "#c9a227",
};

async function fetchJson(url) {
  const res = await fetch(url);
  if (!res.ok) throw new Error(`${url}: HTTP ${res.status}`);
  return res.json();
}

/* ---------- selection-regret heatmaps ---------- */

function renderRegret(container, name, audit) {
  const panel = el("div");
  panel.appendChild(el("h3", "", `${name}` +
    (audit.backend === "runtime" ? " — real processes" : " — simulator")));
  const r = audit.regret || {};
  const stat = el("p", "statline");
  stat.innerHTML =
    `median regret <b>${fmt(r.median)}</b>, max <b>${fmt(r.max)}</b>, ` +
    `optimal in <b>${r.optimal_cells}/${r.count}</b> cells ` +
    `(gate: median &le; ${audit.max_median_regret})`;
  panel.appendChild(stat);

  /* rows: operation/p, cols: n */
  const cells = audit.cells || [];
  const ns = [...new Set(cells.map((c) => c.n))].sort((a, b) => a - b);
  const rowKeys = [...new Set(cells.map((c) => `${c.operation} p=${c.p}`))];
  const byKey = new Map(cells.map((c) =>
    [`${c.operation} p=${c.p}|${c.n}`, c]));

  const grid = el("div", "heatmap");
  grid.style.gridTemplateColumns =
    `170px repeat(${ns.length}, minmax(34px, 60px))`;
  grid.appendChild(el("div"));
  for (const n of ns) grid.appendChild(el("div", "collabel", `n=${n}`));
  for (const key of rowKeys) {
    grid.appendChild(el("div", "hlabel", key));
    for (const n of ns) {
      const c = byKey.get(`${key}|${n}`);
      if (!c) { grid.appendChild(el("div", "cell empty")); continue; }
      const cell = el("div", "cell", c.regret.toFixed(2));
      cell.style.background = regretColor(c.regret);
      const ranking = (c.candidates || []).map((k) =>
        `${k.strategy}: measured ${fmt(k.measured)}s ` +
        `(pred/meas ${fmt(k.ratio, 2)})`).join("\n");
      cell.title = `${key} n=${n}\nchosen ${c.chosen} | best ${c.best}\n` +
        `regret ${fmt(c.regret)}\n${ranking}`;
      grid.appendChild(cell);
    }
  }
  panel.appendChild(grid);
  container.appendChild(panel);
}

/* ---------- generic horizontal bars ---------- */

function barChart(rows, colorOf) {
  /* rows: [{name, value, label, title}] scaled to the max value */
  const wrap = el("div", "bars");
  const max = Math.max(...rows.map((r) => r.value), 1e-12);
  for (const r of rows) {
    const row = el("div", "barrow");
    const name = el("div", "name", r.name);
    name.title = r.title || r.name;
    const track = el("div", "bartrack");
    const fill = el("div", "barfill");
    fill.style.width = `${(100 * r.value / max).toFixed(2)}%`;
    fill.style.background = colorOf ? colorOf(r) : "#5b9dd9";
    track.appendChild(fill);
    row.appendChild(name);
    row.appendChild(track);
    row.appendChild(el("div", "val", r.label));
    wrap.appendChild(row);
  }
  return wrap;
}

/* ---------- BENCH_runtime ---------- */

function renderBenchRuntime(container, bench) {
  const colls = bench.collectives || {};
  const names = Object.keys(colls).sort();
  if (names.length) {
    container.appendChild(el("h3", "",
      "measured wall vs model prediction (per collective)"));
    const rows = [];
    for (const name of names) {
      const c = colls[name];
      rows.push({
        name, value: c.wall_s,
        label: `${fmt(c.wall_s)}s (x${fmt(c.ratio, 2)} of model)`,
        title: `wall ${fmt(c.wall_s)}s, predicted ${fmt(c.predicted_s)}s` +
          (c.wall_s_traced !== undefined
            ? `, traced ${fmt(c.wall_s_traced)}s` : ""),
      });
      rows.push({
        name: "  └ predicted", value: c.predicted_s,
        label: `${fmt(c.predicted_s)}s`, predicted: true,
      });
    }
    container.appendChild(barChart(rows,
      (r) => (r.predicted ? "#3a4656" : "#5b9dd9")));
    const rs = bench.ratio_stats || {};
    const stat = el("p", "statline");
    const inGate = rs.gate &&
      rs.median >= rs.gate[0] && rs.median <= rs.gate[1];
    stat.innerHTML = `wall/predicted ratio: median <b>${fmt(rs.median, 2)}</b>, ` +
      `range [${fmt(rs.min, 2)}, ${fmt(rs.max, 2)}] — gate ` +
      (rs.gate ? `[${rs.gate[0]}, ${rs.gate[1]}] ` : "") +
      `<span class="${inGate ? "gate-pass" : "gate-fail"}">` +
      `${inGate ? "PASS" : "CHECK"}</span>`;
    container.appendChild(stat);
  }

  const pp = bench.pingpong;
  if (pp && pp.samples && pp.samples.length) {
    container.appendChild(el("h3", "",
      "ping-pong trajectory (fitted alpha/beta)"));
    container.appendChild(sparkline(pp.samples.map((s) => s[0]),
                                    pp.samples.map((s) => s[1])));
    const f = pp.fitted || {}, fe = pp.fitted_effective || {};
    const stat = el("p", "statline");
    stat.innerHTML =
      `uncontended fit: alpha <b>${fmt(f.alpha_s)}</b>s, ` +
      `beta <b>${fmt(f.beta_s_per_byte)}</b>s/B; effective (profile): ` +
      `alpha <b>${fmt(fe.alpha_s)}</b>s, beta <b>${fmt(fe.beta_s_per_byte)}</b>s/B`;
    container.appendChild(stat);
  }

  const ov = bench.trace_overhead;
  if (ov) {
    container.appendChild(el("h3", "", "trace overhead (ping-pong)"));
    const stat = el("p", "statline");
    const pct = ov.overhead * 100;
    const pass = ov.overhead < ov.gate;
    stat.innerHTML =
      `untraced <b>${fmt(ov.untraced_s)}</b>s vs traced ` +
      `<b>${fmt(ov.traced_s)}</b>s per rep &rarr; overhead ` +
      `<b>${pct.toFixed(1)}%</b> (gate &lt; ${ov.gate * 100}%) ` +
      `<span class="${pass ? "gate-pass" : "gate-fail"}">` +
      `${pass ? "PASS" : "FAIL"}</span>`;
    container.appendChild(stat);
  }
}

function sparkline(xs, ys) {
  const W = 460, H = 120, P = 34;
  const svg = document.createElementNS("http://www.w3.org/2000/svg", "svg");
  svg.setAttribute("width", W);
  svg.setAttribute("height", H);
  svg.setAttribute("class", "spark");
  const xmax = Math.max(...xs, 1), ymax = Math.max(...ys, 1e-12);
  const px = (x) => P + (W - P - 8) * (x / xmax);
  const py = (y) => H - 18 - (H - 30) * (y / ymax);
  const pts = xs.map((x, i) => `${px(x).toFixed(1)},${py(ys[i]).toFixed(1)}`);
  const line = document.createElementNS(svg.namespaceURI, "polyline");
  line.setAttribute("points", pts.join(" "));
  svg.appendChild(line);
  xs.forEach((x, i) => {
    const dot = document.createElementNS(svg.namespaceURI, "circle");
    dot.setAttribute("cx", px(x).toFixed(1));
    dot.setAttribute("cy", py(ys[i]).toFixed(1));
    dot.setAttribute("r", 2.5);
    const t = document.createElementNS(svg.namespaceURI, "title");
    t.textContent = `${x} B: ${fmt(ys[i])}s`;
    dot.appendChild(t);
    svg.appendChild(dot);
    const lbl = document.createElementNS(svg.namespaceURI, "text");
    lbl.setAttribute("x", px(x).toFixed(1));
    lbl.setAttribute("y", H - 4);
    lbl.setAttribute("text-anchor", "middle");
    lbl.textContent = x >= 1024 ? `${x / 1024}k` : `${x}`;
    svg.appendChild(lbl);
  });
  const ymaxLbl = document.createElementNS(svg.namespaceURI, "text");
  ymaxLbl.setAttribute("x", 2);
  ymaxLbl.setAttribute("y", 12);
  ymaxLbl.textContent = `${fmt(ymax)}s`;
  svg.appendChild(ymaxLbl);
  return svg;
}

/* ---------- BENCH_sim ---------- */

function renderBenchSim(container, bench) {
  const cases = bench.cases || {};
  const names = Object.keys(cases).sort();
  if (!names.length) return;
  const rows = names.map((name) => ({
    name,
    value: cases[name].speedup,
    label: `x${fmt(cases[name].speedup, 2)}`,
    title: `before ${fmt((cases[name].before || {}).wall_s)}s, ` +
      `after ${fmt((cases[name].after || {}).wall_s)}s`,
  }));
  container.appendChild(barChart(rows, (r) =>
    r.value >= 1.0 ? "#34a35f" : "#c9a227"));
  const speeds = names.map((n) => cases[n].speedup).sort((a, b) => a - b);
  const median = speeds[Math.floor(speeds.length / 2)];
  container.appendChild(el("p", "statline",
    `${names.length} cases; median speedup x${fmt(median, 2)}; total ` +
    `sweep ${fmt(bench.total_wall_s, 1)}s wall`));
}

/* ---------- multi-tenant service ---------- */

function renderService(container, bench) {
  const cells = bench.cells || [];
  const gates = bench.gates || {};
  const gateHtml = Object.entries(gates)
    .filter(([, v]) => typeof v === "boolean")
    .map(([k, v]) =>
      `${k} <span class="${v ? "gate-pass" : "gate-fail"}">` +
      `${v ? "PASS" : "FAIL"}</span>`).join(" &middot; ");
  const stat = el("p", "statline");
  stat.innerHTML = `${cells.length} grid cells (${bench.grid} grid)` +
    ` &middot; ${gateHtml}`;
  container.appendChild(stat);
  if (!cells.length) return;

  container.appendChild(el("h3", "",
    "fused vs unfused throughput (requests/s)"));
  const rows = [];
  for (const cell of cells) {
    const title = `fusion ratio ${fmt(cell.fused.fusion_ratio, 2)}, ` +
      `fairness ${fmt(cell.fused.fairness_index, 3)}, ` +
      `p99 latency ${fmt((cell.fused.latency_v || {}).p99)}s (virtual)`;
    rows.push({
      name: `${cell.id} fused`,
      value: cell.fused.requests_per_s,
      label: `${fmt(cell.fused.requests_per_s, 0)}/s ` +
        `(x${fmt(cell.speedup, 2)})`,
      title,
    });
    rows.push({
      name: `${cell.id} unfused`,
      value: cell.unfused.requests_per_s,
      label: `${fmt(cell.unfused.requests_per_s, 0)}/s`,
      title,
    });
  }
  container.appendChild(barChart(rows, (r) =>
    r.name.endsWith(" fused") ? "#34a35f" : "#5b9dd9"));

  container.appendChild(el("h3", "",
    "per-tenant service-time shares (fused run)"));
  for (const cell of cells) {
    const shares = cell.fused.tenant_shares || {};
    const tenants = Object.keys(shares).sort();
    if (!tenants.length) continue;
    const floor = 0.5 / Math.max(cell.tenants, 1);
    const isStorm = cell.workload === "storm";
    container.appendChild(el("h4", "", `${cell.id} — fairness ` +
      `${fmt(cell.fused.fairness_index, 3)}` +
      (isStorm ? ` (floor ${fmt(floor, 3)}/tenant)` : "")));
    container.appendChild(barChart(
      tenants.map((t) => ({
        name: t,
        value: shares[t],
        label: fmt(shares[t], 3),
        title: `${t}: ${fmt(100 * shares[t], 1)}% of priced ` +
          `service time`,
      })),
      (r) => (isStorm && r.value < floor) ? "#c54545" : "#34a35f"));
  }
}

/* ---------- chaos verdicts ---------- */

function renderChaos(container, report) {
  const stat = el("p", "statline");
  const gates = report.gates || {};
  const counts = report.counts || {};
  const gateHtml = Object.entries(gates).map(([k, v]) =>
    `${k} <span class="${v ? "gate-pass" : "gate-fail"}">` +
    `${v ? "PASS" : "FAIL"}</span>`).join(" &middot; ");
  stat.innerHTML = `${report.cases} cases, ` +
    `${counts.ok || 0} clean, ` +
    `${counts["diagnosed-fault"] || 0} diagnosed, ` +
    `${(report.violations || []).length} violations &middot; ${gateHtml}`;
  container.appendChild(stat);

  const byProfile = new Map();
  for (const rec of report.records || []) {
    const profile = rec.case.profile;
    if (!byProfile.has(profile)) byProfile.set(profile, []);
    byProfile.get(profile).push(rec);
  }
  for (const [profile, recs] of byProfile) {
    container.appendChild(el("h3", "",
      `${profile} (${recs.length} cases)`));
    const grid = el("div", "verdicts");
    for (const rec of recs) {
      const cell = el("div", "cell");
      cell.style.background = VERDICT_COLORS[rec.verdict] || "#c54545";
      cell.title = `${rec.case.origin || rec.id}\nverdict: ${rec.verdict}` +
        `\nt=${fmt(rec.sim_time)}s`;
      grid.appendChild(cell);
    }
    container.appendChild(grid);
  }
}

/* ---------- chaos autopilot ---------- */

/* coverage count 0 -> dark, deeper counts -> brighter blue */
function coverageColor(count, max) {
  if (!count) return "#2a3240";
  const t = Math.min(1, count / Math.max(max, 1));
  const c = [42 + 49 * t, 50 + 107 * t, 64 + 153 * t].map(Math.round);
  return `rgb(${c[0]},${c[1]},${c[2]})`;
}

function countHeatmap(matrix, colLabel) {
  /* matrix: {row: {col: count}} */
  const rows = Object.keys(matrix).sort();
  const cols = [...new Set(rows.flatMap((r) => Object.keys(matrix[r])))]
    .sort();
  const max = Math.max(...rows.flatMap((r) =>
    cols.map((c) => matrix[r][c] || 0)), 1);
  const grid = el("div", "heatmap");
  grid.style.gridTemplateColumns =
    `120px repeat(${cols.length}, minmax(44px, 90px))`;
  grid.appendChild(el("div"));
  for (const c of cols) grid.appendChild(el("div", "collabel", c));
  for (const r of rows) {
    grid.appendChild(el("div", "hlabel", r));
    for (const c of cols) {
      const count = matrix[r][c] || 0;
      const cell = el("div", "cell", count ? `${count}` : "");
      cell.style.background = colLabel === "verdict"
        ? (count ? VERDICT_COLORS[c] || "#c54545" : "#2a3240")
        : coverageColor(count, max);
      cell.title = `${r} / ${c}: ${count} case(s)`;
      grid.appendChild(cell);
    }
  }
  return grid;
}

function renderAutopilot(container, report) {
  const stat = el("p", "statline");
  const gates = report.gates || {};
  const gateHtml = Object.entries(gates).map(([k, v]) =>
    `${k} <span class="${v ? "gate-pass" : "gate-fail"}">` +
    `${v ? "PASS" : "FAIL"}</span>`).join(" &middot; ");
  const verdicts = Object.entries(report.verdicts || {})
    .map(([k, v]) => `${v} ${k}`).join(", ");
  stat.innerHTML = `seed <b>${report.seed}</b>: ${report.cases} new ` +
    `cases (${verdicts}); corpus <b>${report.store_records}</b> records, ` +
    `coverage <b>${report.explored_cells}/${report.possible_cells}</b> ` +
    `cells &middot; ${gateHtml}`;
  container.appendChild(stat);

  if (report.cell_matrix && Object.keys(report.cell_matrix).length) {
    container.appendChild(el("h3", "",
      "corpus coverage (topology class x collective)"));
    container.appendChild(countHeatmap(report.cell_matrix, "op"));
  }
  if (report.profile_matrix && Object.keys(report.profile_matrix).length) {
    container.appendChild(el("h3", "",
      "verdicts per fault profile"));
    container.appendChild(countHeatmap(report.profile_matrix, "verdict"));
  }

  const findings = report.open_findings || [];
  container.appendChild(el("h3", "",
    `open findings (${findings.length})`));
  if (!findings.length) {
    container.appendChild(el("p", "statline",
      "none — every case ended clean or with a typed diagnosis."));
  } else {
    const ul = el("ul");
    for (const f of findings) {
      const li = el("li");
      li.appendChild(el("code", "", f.id));
      li.appendChild(document.createTextNode(
        ` ${f.verdict}: ${JSON.stringify(f.topo)} ${f.op} ` +
        `(${f.profile})` +
        (f.minimized_nranks
          ? ` — minimized to ${f.minimized_nranks} ranks` : "") +
        (f.golden ? " [golden reproducer]" : "")));
      ul.appendChild(li);
    }
    container.appendChild(ul);
  }
}

/* ---------- calibration drift ---------- */

function renderDrift(container, bench) {
  const profile = bench.profile;
  if (!profile) {
    container.appendChild(el("p", "statline",
      "no calibration profile recorded in BENCH_runtime.json"));
    return;
  }
  const presets = bench.model_presets || {};
  const table = el("table", "kv");
  const head = el("tr");
  for (const h of ["constants", "alpha (s)", "beta (s/B)"])
    head.appendChild(el("th", "", h));
  table.appendChild(head);
  const addRow = (name, a, b) => {
    const tr = el("tr");
    tr.appendChild(el("td", "", name));
    tr.appendChild(el("td", "", fmt(a)));
    tr.appendChild(el("td", "", fmt(b)));
    table.appendChild(tr);
  };
  const p = profile.params || {};
  addRow(`fitted profile (${profile.host}, ${profile.transport})`,
         p.alpha, p.beta);
  for (const [name, pr] of Object.entries(presets))
    addRow(`preset: ${name}`, pr.alpha_s, pr.beta_s_per_byte);
  container.appendChild(table);

  const drift = ((profile.provenance || {}).drift) || null;
  if (drift) {
    const s = el("p", "statline");
    s.innerHTML = "contention drift refit: " +
      Object.entries(drift).map(([k, v]) =>
        `${k}=<b>${typeof v === "number" ? fmt(v) : v}</b>`).join(", ");
    container.appendChild(s);
  }
  const noise = profile.noise;
  if (noise) {
    const s = el("p", "statline");
    s.innerHTML = `measurement noise: median rel spread ` +
      `<b>${fmt(noise.median_rel_spread, 3)}</b>, max ` +
      `<b>${fmt(noise.max_rel_spread, 3)}</b> ` +
      `(profile created ${profile.created_iso || "?"})`;
    container.appendChild(s);
  }
}

/* ---------- traces ---------- */

function renderTraces(list, traces) {
  for (const t of traces) {
    const li = el("li");
    const a = el("a", "", t.name);
    a.href = `/api/artifact/${t.name}`;
    a.setAttribute("download", t.name);
    li.appendChild(a);
    li.appendChild(document.createTextNode(
      ` (${(t.bytes / 1024).toFixed(1)} KiB)`));
    list.appendChild(li);
  }
}

/* ---------- main ---------- */

async function main() {
  const status = $("status");
  let index;
  try {
    index = await fetchJson("/api/index");
  } catch (err) {
    status.textContent = `failed to load /api/index: ${err.message}`;
    return;
  }
  const present = new Set(index.artifacts.map((a) => a.name));
  status.textContent =
    `${index.artifacts.length} artifacts, ${index.traces.length} ` +
    `merged traces under the serve root.`;

  const get = (name) => present.has(name)
    ? fetchJson(`/api/artifact/${name}`) : Promise.resolve(null);
  const [auditModel, auditRuntime, benchRuntime, benchSim, chaos,
         autopilot, service] =
    await Promise.all([
      get("AUDIT_model.json"), get("AUDIT_runtime.json"),
      get("BENCH_runtime.json"), get("BENCH_sim.json"),
      get("CHAOS_report.json"), get("CHAOS_autopilot.json"),
      get("BENCH_service.json"),
    ]);

  if (auditModel || auditRuntime) {
    $("sec-regret").hidden = false;
    if (auditModel)
      renderRegret($("regret-panels"), "AUDIT_model.json", auditModel);
    if (auditRuntime)
      renderRegret($("regret-panels"), "AUDIT_runtime.json", auditRuntime);
  }
  if (benchRuntime) {
    $("sec-bench-runtime").hidden = false;
    renderBenchRuntime($("bench-runtime"), benchRuntime);
    $("sec-drift").hidden = false;
    renderDrift($("drift"), benchRuntime);
  }
  if (benchSim) {
    $("sec-bench-sim").hidden = false;
    renderBenchSim($("bench-sim"), benchSim);
  }
  if (service) {
    $("sec-service").hidden = false;
    renderService($("service"), service);
  }
  if (chaos) {
    $("sec-chaos").hidden = false;
    renderChaos($("chaos"), chaos);
  }
  if (autopilot) {
    $("sec-autopilot").hidden = false;
    renderAutopilot($("autopilot"), autopilot);
  }
  if (index.traces.length) {
    $("sec-traces").hidden = false;
    renderTraces($("traces"), index.traces);
  }
}

main();
