//! Job specs, the durable job ledger, and the job executor.
//!
//! A job is one budgeted training cell — the same cell `rexctl train`
//! runs, specified as a flat JSON object and executed through
//! [`rex_train::settings::SettingSpec::run_ft`]. Every job has a
//! manifest, `jobs/<id>/job.json`, written crash-consistently via
//! `rex_faults::atomic_write`. The ledger keeps a queued or running job's
//! record in memory and mirrors each change to the manifest; a finished
//! job lives only in its manifest, so the daemon's memory does not grow
//! with the jobs it has run. A restarted server rebuilds its world from
//! disk: terminal jobs stay queryable, non-terminal jobs re-enter the
//! queue and resume from their last `REXSTATE1` checkpoint.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rex_core::ScheduleSpec;
use rex_telemetry::json::{self, Value};
use rex_telemetry::{FanoutSink, JsonlSink, MetricsRegistry, Recorder, RegistrySink};
use rex_tensor::DType;
use rex_train::settings::load_setting;
use rex_train::{Budget, FtConfig, OptimizerKind, TrainError};

/// Retry budget for jobs that do not specify `max_retries` (and for
/// manifests written before the field existed).
pub const DEFAULT_MAX_RETRIES: u64 = 3;

/// A validated training-job specification, as submitted over HTTP.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Setting name from [`rex_train::settings::SETTING_NAMES`].
    pub setting: String,
    /// Budget as a percentage of the setting's maximum epochs.
    pub budget: u32,
    /// Schedule name (the `--schedule` vocabulary), parsed lazily so the
    /// spec round-trips through JSON byte-exactly.
    pub schedule: String,
    /// Optimizer family name.
    pub optimizer: String,
    /// Run seed.
    pub seed: u64,
    /// Initial LR; `None` means the setting's default for the optimizer.
    pub lr: Option<f32>,
    /// Checkpoint cadence in steps; 0 disables checkpointing (the job
    /// cannot be resumed after an eviction).
    pub checkpoint_every: u64,
    /// Parameter storage precision (`"f32"` | `"f16"` | `"bf16"`);
    /// defaults to `"f32"`, the legacy bit-exact path.
    pub dtype: String,
    /// How many times a *transient* failure (checkpoint/trace I/O, hung
    /// run caught by the watchdog) may be retried before the job is
    /// marked failed for good.
    pub max_retries: u64,
}

impl JobSpec {
    /// Parses and validates a flat-JSON job body.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field.
    pub fn parse(
        body: &str,
        default_checkpoint_every: u64,
        default_max_retries: u64,
    ) -> Result<JobSpec, String> {
        let obj = json::parse_object(body)?;
        let known = [
            "setting",
            "budget",
            "schedule",
            "optimizer",
            "seed",
            "lr",
            "checkpoint_every",
            "dtype",
            "max_retries",
        ];
        if let Some(k) = obj.keys().find(|k| !known.contains(&k.as_str())) {
            return Err(format!("unknown field {k:?}"));
        }
        let str_field = |key: &str, default: &str| -> Result<String, String> {
            match obj.get(key) {
                None => Ok(default.to_owned()),
                Some(Value::Str(s)) => Ok(s.clone()),
                Some(_) => Err(format!("field {key:?} must be a string")),
            }
        };
        let spec = JobSpec {
            setting: match obj.get("setting") {
                Some(Value::Str(s)) => s.clone(),
                Some(_) => return Err("field \"setting\" must be a string".to_owned()),
                None => return Err("missing required field \"setting\"".to_owned()),
            },
            budget: match obj.get("budget") {
                None => return Err("missing required field \"budget\"".to_owned()),
                Some(v) => Budget::check_pct(
                    v.as_u64()
                        .ok_or_else(|| "field \"budget\" must be an integer".to_owned())?,
                )?,
            },
            schedule: str_field("schedule", "rex")?,
            optimizer: str_field("optimizer", "sgdm")?,
            seed: match obj.get("seed") {
                None => 0,
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| "field \"seed\" must be a non-negative integer".to_owned())?,
            },
            lr: match obj.get("lr") {
                None | Some(Value::Null) => None,
                // tested as the f32 the trainer runs with: 1e39 rounds
                // to inf and 1e-46 to 0
                Some(v) => Some(
                    v.as_f64()
                        .map(|f| f as f32)
                        .filter(|f| f.is_finite() && *f > 0.0)
                        .ok_or_else(|| {
                            "field \"lr\" must be a positive number that fits in f32".to_owned()
                        })?,
                ),
            },
            checkpoint_every: match obj.get("checkpoint_every") {
                None => default_checkpoint_every,
                Some(v) => v.as_u64().ok_or_else(|| {
                    "field \"checkpoint_every\" must be a non-negative integer".to_owned()
                })?,
            },
            dtype: str_field("dtype", "f32")?,
            max_retries: match obj.get("max_retries") {
                None => default_max_retries,
                Some(v) => v.as_u64().ok_or_else(|| {
                    "field \"max_retries\" must be a non-negative integer".to_owned()
                })?,
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks every named field against the vocabulary it will be run
    /// with (the budget is checked as it is decoded).
    ///
    /// # Errors
    ///
    /// A message naming the invalid field.
    pub fn validate(&self) -> Result<(), String> {
        load_setting(&self.setting, 0)?;
        self.parsed_schedule()?;
        OptimizerKind::parse(&self.optimizer)?;
        DType::parse(&self.dtype)?;
        Ok(())
    }

    /// The schedule, parsed.
    ///
    /// # Errors
    ///
    /// The schedule grammar's own message.
    pub fn parsed_schedule(&self) -> Result<ScheduleSpec, String> {
        self.schedule
            .parse()
            .map_err(|e: rex_core::ParseScheduleError| e.to_string())
    }

    /// Serializes the spec's fields (callers wrap them into an object).
    fn json_fields(&self) -> String {
        format!(
            "\"setting\":\"{}\",\"budget\":{},\"schedule\":\"{}\",\"optimizer\":\"{}\",\
             \"seed\":{},\"lr\":{},\"checkpoint_every\":{},\"dtype\":\"{}\",\"max_retries\":{}",
            json::escape(&self.setting),
            self.budget,
            json::escape(&self.schedule),
            json::escape(&self.optimizer),
            self.seed,
            self.lr
                .map_or("null".to_owned(), |lr| json::fmt_f64(f64::from(lr))),
            self.checkpoint_every,
            json::escape(&self.dtype),
            self.max_retries,
        )
    }
}

/// The lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is training it.
    Running,
    /// Finished; the metric is final.
    Done,
    /// Errored out; see the record's `error`.
    Failed,
    /// Canceled before completion.
    Canceled,
}

impl JobState {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
        }
    }

    /// Whether the job can never change state again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Canceled)
    }

    fn parse(name: &str) -> Result<JobState, String> {
        Ok(match name {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "canceled" => JobState::Canceled,
            other => return Err(format!("unknown job state {other:?}")),
        })
    }
}

/// One job's full record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id (`job-000001`, …).
    pub id: String,
    /// The spec it was submitted with.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Final metric, once `Done`.
    pub metric: Option<f64>,
    /// Failure message, once `Failed`.
    pub error: Option<String>,
    /// Times this job re-entered the queue after a server restart.
    pub resumes: u64,
    /// Times this job was re-queued after a transient failure. Persisted,
    /// so the retry budget survives daemon restarts.
    pub retries: u64,
    /// Backoff pause (milliseconds) before the next retry attempt, when
    /// one is scheduled; cleared when the attempt starts.
    pub retry_after_ms: Option<u64>,
    /// Id of the HTTP request that submitted the job (`c<N>-r<M>`), for
    /// correlating manifests with access-log lines. Deliberately kept out
    /// of the job's trace: traces must stay byte-identical to CLI runs.
    pub request_id: Option<String>,
    /// Cooperative cancel flag, shared with the trainer's `stop_flag`.
    /// Set by explicit cancels, the watchdog, and graceful drain alike —
    /// the companion flags below say which it was.
    pub cancel: Arc<AtomicBool>,
    /// Set only by `DELETE /v1/jobs/:id`: a halt with this flag up is a
    /// user cancel, never a drain hand-back or a watchdog retry.
    pub user_cancel: Arc<AtomicBool>,
    /// Set by the watchdog when the job stopped making step progress; a
    /// halt with this flag up is classified as a transient failure.
    pub watchdog_fired: Arc<AtomicBool>,
}

impl JobRecord {
    /// Serializes the record as one flat JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":\"{}\",{},\"state\":\"{}\",\"metric\":{},\"error\":{},\"resumes\":{},\
             \"retries\":{},\"retry_after_ms\":{},\"request_id\":{}}}",
            json::escape(&self.id),
            self.spec.json_fields(),
            self.state.name(),
            self.metric.map_or("null".to_owned(), json::fmt_f64),
            self.error
                .as_deref()
                .map_or("null".to_owned(), |e| format!("\"{}\"", json::escape(e))),
            self.resumes,
            self.retries,
            self.retry_after_ms
                .map_or("null".to_owned(), |ms| ms.to_string()),
            self.request_id
                .as_deref()
                .map_or("null".to_owned(), |r| format!("\"{}\"", json::escape(r))),
        )
    }

    fn from_json(text: &str) -> Result<JobRecord, String> {
        let obj = json::parse_object(text)?;
        let get_str = |key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("job record missing string field {key:?}"))
        };
        let spec = JobSpec {
            setting: get_str("setting")?,
            // a budget outside 1..=100 would panic the worker that runs it
            budget: Budget::check_pct(
                (obj.get("budget").and_then(Value::as_u64)).ok_or("job record missing budget")?,
            )?,
            schedule: get_str("schedule")?,
            optimizer: get_str("optimizer")?,
            seed: obj
                .get("seed")
                .and_then(Value::as_u64)
                .ok_or("job record missing seed")?,
            lr: match obj.get("lr") {
                None | Some(Value::Null) => None,
                Some(v) => Some(v.as_f64().ok_or("job record lr not a number")? as f32),
            },
            checkpoint_every: obj
                .get("checkpoint_every")
                .and_then(Value::as_u64)
                .ok_or("job record missing checkpoint_every")?,
            // manifests written before the dtype field existed are f32
            dtype: match obj.get("dtype") {
                None => "f32".to_owned(),
                Some(v) => v
                    .as_str()
                    .map(str::to_owned)
                    .ok_or("job record dtype not a string")?,
            },
            // manifests written before retry supervision existed get the
            // default budget
            max_retries: obj
                .get("max_retries")
                .and_then(Value::as_u64)
                .unwrap_or(DEFAULT_MAX_RETRIES),
        };
        Ok(JobRecord {
            id: get_str("id")?,
            spec,
            state: JobState::parse(&get_str("state")?)?,
            metric: match obj.get("metric") {
                None | Some(Value::Null) => None,
                Some(v) => v.as_f64().filter(|m| m.is_finite()),
            },
            error: match obj.get("error") {
                None | Some(Value::Null) => None,
                Some(v) => v.as_str().map(str::to_owned),
            },
            resumes: obj.get("resumes").and_then(Value::as_u64).unwrap_or(0),
            retries: obj.get("retries").and_then(Value::as_u64).unwrap_or(0),
            retry_after_ms: obj.get("retry_after_ms").and_then(Value::as_u64),
            // manifests written before request ids existed have none
            request_id: match obj.get("request_id") {
                None | Some(Value::Null) => None,
                Some(v) => v.as_str().map(str::to_owned),
            },
            cancel: Arc::new(AtomicBool::new(false)),
            user_cancel: Arc::new(AtomicBool::new(false)),
            watchdog_fired: Arc::new(AtomicBool::new(false)),
        })
    }
}

/// Live job counts, for `/healthz` and `/metrics`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct JobCounts {
    /// Jobs in `Queued`.
    pub queued: u64,
    /// Jobs in `Running`.
    pub running: u64,
}

/// The number in a job id of the form `job-<digits>`.
fn job_number(id: &str) -> Option<u64> {
    let digits = id.strip_prefix("job-")?;
    // parse alone would also take a leading sign
    digits
        .bytes()
        .all(|b| b.is_ascii_digit())
        .then(|| digits.parse().ok())?
}

/// Reads and decodes `dir/job.json`, which must name the job `dir` is
/// named after.
fn read_manifest(dir: &Path) -> std::io::Result<JobRecord> {
    let path = dir.join("job.json");
    let text = std::fs::read_to_string(&path)?;
    JobRecord::from_json(&text)
        .and_then(|record| match dir.file_name() {
            Some(name) if *name == *record.id => Ok(record),
            _ => Err(format!("manifest names job {:?}", record.id)),
        })
        .map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("corrupt job manifest {}: {e}", path.display()),
            )
        })
}

/// The durable job ledger. A queued or running job's record lives in
/// memory and is mirrored to `<data_dir>/jobs/<id>/job.json`; a finished
/// job lives only in that manifest.
pub struct Ledger {
    /// Queued and running jobs.
    live: Mutex<BTreeMap<String, JobRecord>>,
    /// The number of the newest job id handed out.
    last_id: AtomicU64,
    data_dir: PathBuf,
}

impl Ledger {
    /// Opens (or creates) the ledger under `data_dir`, decoding every job
    /// manifest found on disk and keeping the queued and running jobs in
    /// memory. Jobs recorded as `Running` by a previous server life are
    /// flipped back to `Queued` (their next run resumes from the
    /// checkpoint).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; corrupt `job.json` files are
    /// reported, not skipped — silently dropping a job would violate the
    /// no-lost-jobs contract.
    pub fn open(data_dir: &Path) -> std::io::Result<Ledger> {
        let jobs_root = data_dir.join("jobs");
        std::fs::create_dir_all(&jobs_root)?;
        let (mut live, mut last_id) = (BTreeMap::new(), 0);
        for entry in std::fs::read_dir(&jobs_root)? {
            let dir = entry?.path();
            if !dir.join("job.json").is_file() {
                continue;
            }
            let mut record = read_manifest(&dir)?;
            last_id = last_id.max(job_number(&record.id).unwrap_or(0));
            if record.state.is_terminal() {
                continue;
            }
            if record.state == JobState::Running {
                record.state = JobState::Queued;
                record.resumes += 1;
            }
            live.insert(record.id.clone(), record);
        }
        Ok(Ledger {
            live: Mutex::new(live),
            last_id: AtomicU64::new(last_id),
            data_dir: data_dir.to_owned(),
        })
    }

    /// Ids of non-terminal jobs, oldest first — the startup re-enqueue
    /// list. Persists their (possibly reset) state first.
    ///
    /// # Errors
    ///
    /// Propagates manifest-write errors.
    pub fn recoverable(&self) -> std::io::Result<Vec<String>> {
        let live = self.live.lock().unwrap();
        for record in live.values() {
            self.persist(record)?;
        }
        Ok(live.keys().cloned().collect())
    }

    /// Allocates the next job id and registers `spec` as `Queued`,
    /// without touching disk yet (see [`Ledger::commit`] /
    /// [`Ledger::discard`]). `request_id` ties the manifest back to the
    /// submitting HTTP request, when there was one.
    pub fn create(&self, spec: JobSpec, request_id: Option<String>) -> JobRecord {
        let number = self.last_id.fetch_add(1, Ordering::Relaxed) + 1;
        let record = JobRecord {
            id: format!("job-{number:06}"),
            spec,
            state: JobState::Queued,
            metric: None,
            error: None,
            resumes: 0,
            retries: 0,
            retry_after_ms: None,
            request_id,
            cancel: Arc::new(AtomicBool::new(false)),
            user_cancel: Arc::new(AtomicBool::new(false)),
            watchdog_fired: Arc::new(AtomicBool::new(false)),
        };
        let copy = record.clone();
        self.live.lock().unwrap().insert(record.id.clone(), copy);
        record
    }

    /// Persists a freshly created record — call once it is safely in the
    /// queue.
    ///
    /// # Errors
    ///
    /// Propagates manifest-write errors.
    pub fn commit(&self, record: &JobRecord) -> std::io::Result<()> {
        self.persist(record)
    }

    /// Forgets a record that never made it into the queue (admission
    /// rejected): the map entry and any stray dir are dropped. The id is
    /// not handed out again while this ledger is open.
    pub fn discard(&self, id: &str) {
        self.live.lock().unwrap().remove(id);
        let _ = std::fs::remove_dir_all(self.job_dir(id));
    }

    /// A point-in-time copy of one record: from memory while the job is
    /// live, else from its manifest. Only ids of the form `job-<digits>`
    /// are looked up on disk.
    pub fn get(&self, id: &str) -> Option<JobRecord> {
        if let Some(record) = self.live.lock().unwrap().get(id) {
            return Some(record.clone());
        }
        job_number(id)?;
        read_manifest(&self.job_dir(id)).ok()
    }

    /// Point-in-time copies of every record, id order: the live ones from
    /// memory, the finished ones from their manifests.
    pub fn list(&self) -> Vec<JobRecord> {
        let mut all = self.live.lock().unwrap().clone();
        let entries = std::fs::read_dir(self.data_dir.join("jobs"));
        for entry in entries.into_iter().flatten().flatten() {
            if let Some(record) = entry.file_name().to_str().and_then(|id| self.get(id)) {
                all.entry(record.id.clone()).or_insert(record);
            }
        }
        all.into_values().collect()
    }

    /// Counts of the live jobs.
    pub fn counts(&self) -> JobCounts {
        let mut c = JobCounts::default();
        for record in self.live.lock().unwrap().values() {
            match record.state {
                JobState::Queued => c.queued += 1,
                JobState::Running => c.running += 1,
                JobState::Done | JobState::Failed | JobState::Canceled => {}
            }
        }
        c
    }

    /// Transitions `id` to `state` (with optional metric/error) and
    /// persists the record. A terminal record then leaves memory: its
    /// manifest is its only copy. Returns the updated record.
    ///
    /// # Errors
    ///
    /// Propagates manifest-write errors (the record then stays in
    /// memory); ids that are not live are a no-op `None`.
    pub fn set_state(
        &self,
        id: &str,
        state: JobState,
        metric: Option<f64>,
        error: Option<String>,
    ) -> std::io::Result<Option<JobRecord>> {
        let mut live = self.live.lock().unwrap();
        let Some(record) = live.get_mut(id) else {
            return Ok(None);
        };
        record.state = state;
        if state == JobState::Running {
            record.retry_after_ms = None;
        }
        if metric.is_some() {
            record.metric = metric;
        }
        if error.is_some() {
            record.error = error;
        }
        let snapshot = record.clone();
        drop(live);
        self.persist(&snapshot)?;
        if state.is_terminal() {
            self.live.lock().unwrap().remove(id);
        }
        Ok(Some(snapshot))
    }

    /// Books one transient-failure retry: bumps the retry counter, records
    /// the backoff pause, parks the job back in `Queued`, and clears the
    /// halt flags so the next attempt is not stillborn. Persisted, so the
    /// retry budget and pending backoff survive a daemon restart.
    ///
    /// # Errors
    ///
    /// Propagates manifest-write errors.
    pub fn record_retry(&self, id: &str, backoff_ms: u64) -> std::io::Result<Option<JobRecord>> {
        let mut live = self.live.lock().unwrap();
        let Some(record) = live.get_mut(id) else {
            return Ok(None);
        };
        record.retries += 1;
        record.retry_after_ms = Some(backoff_ms);
        record.state = JobState::Queued;
        record.cancel.store(false, Ordering::Release);
        record.watchdog_fired.store(false, Ordering::Release);
        let snapshot = record.clone();
        drop(live);
        self.persist(&snapshot)?;
        Ok(Some(snapshot))
    }

    /// Sets the cancel flag of every live job (server shutdown).
    pub fn cancel_all(&self) {
        for record in self.live.lock().unwrap().values() {
            record.cancel.store(true, Ordering::Release);
        }
    }

    /// Asks every `Running` job to halt at its next step boundary
    /// (graceful drain: the trainer checkpoints and the job goes back to
    /// `Queued`, not `Canceled`). Queued jobs are left untouched.
    pub fn halt_running(&self) {
        for record in self.live.lock().unwrap().values() {
            if record.state == JobState::Running {
                record.cancel.store(true, Ordering::Release);
            }
        }
    }

    /// The job's working directory.
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.data_dir.join("jobs").join(id)
    }

    /// The job's JSONL trace path.
    pub fn trace_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("trace.jsonl")
    }

    /// The job's `REXSTATE1` checkpoint path.
    pub fn ckpt_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("ckpt.state")
    }

    fn persist(&self, record: &JobRecord) -> std::io::Result<()> {
        let dir = self.job_dir(&record.id);
        std::fs::create_dir_all(&dir)?;
        let mut text = record.to_json();
        text.push('\n');
        rex_faults::atomic_write("job", &dir.join("job.json"), text.as_bytes())
    }
}

/// How one job execution ended.
#[derive(Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Trained to completion.
    Done,
    /// Stopped by its cancel flag.
    Canceled,
    /// Errored permanently (bad config, non-finite loss, retries spent).
    Failed,
    /// Failed transiently (checkpoint/trace I/O, watchdog halt); the
    /// supervisor decides whether to re-queue it with backoff.
    Retry(String),
    /// Halted by a graceful drain; parked back in `Queued` with a fresh
    /// checkpoint so the next daemon life resumes it.
    Drained,
}

/// Deterministic full-jitter exponential backoff: the ceiling doubles per
/// attempt from `BASE_MS` up to `CAP_MS`, and the pause is drawn below the
/// ceiling by a splitmix64 hash of (job id, attempt) — reproducible across
/// runs, uncorrelated across jobs.
pub fn backoff_ms(id: &str, attempt: u64) -> u64 {
    const BASE_MS: u64 = 50;
    const CAP_MS: u64 = 5_000;
    let ceiling = (BASE_MS << attempt.saturating_sub(1).min(8)).min(CAP_MS);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h
        .wrapping_add(attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    1 + z % ceiling
}

/// Whether a training failure is worth retrying: checkpoint/trace I/O can
/// heal (full disk, fault injection), while config errors, incompatible
/// resumes, and numeric blowups will fail identically every attempt.
fn is_transient(e: &TrainError) -> bool {
    matches!(e, TrainError::Checkpoint { .. } | TrainError::Trace(_))
}

/// Supervision context for one job execution, threaded in by the worker:
/// the server-wide drain flag and the heartbeat cell the watchdog reads.
/// `RunCtx::default()` (no drain, no heartbeat) suits direct callers.
#[derive(Default)]
pub struct RunCtx {
    /// The server's drain flag; a halt while it is up parks the job back
    /// in `Queued` instead of `Canceled`.
    pub draining: Option<Arc<AtomicBool>>,
    /// Last completed step, published by the trainer every step.
    pub heartbeat: Option<Arc<AtomicU64>>,
}

/// Executes job `id` to a terminal state or a supervised hand-back: opens
/// the job's trace, runs the cell through the shared setting runner
/// (resuming from the job's checkpoint when one exists — a poisoned
/// checkpoint is quarantined and the job restarts from scratch), and
/// persists the outcome.
///
/// # Errors
///
/// Only manifest-write failures surface as `Err`; training failures are
/// classified into [`RunOutcome::Failed`] (permanent) or
/// [`RunOutcome::Retry`] (transient), and trace-sink I/O failures come
/// back as `Retry` too.
pub fn run_job(
    ledger: &Ledger,
    registry: &Arc<MetricsRegistry>,
    id: &str,
    ctx: &RunCtx,
) -> std::io::Result<RunOutcome> {
    let Some(record) = ledger.get(id) else {
        return Ok(RunOutcome::Failed);
    };
    // A cancel that raced admission: honor it without spinning up a run.
    if record.cancel.load(Ordering::Acquire) {
        ledger.set_state(id, JobState::Canceled, None, None)?;
        return Ok(RunOutcome::Canceled);
    }
    ledger.set_state(id, JobState::Running, None, None)?;

    let spec = &record.spec;
    let ckpt_path = ledger.ckpt_path(id);
    let jsonl = match JsonlSink::open(&ledger.trace_path(id)) {
        Ok(sink) => sink,
        Err(e) => return Ok(RunOutcome::Retry(format!("trace sink: {e}"))),
    };
    let mut rec = Recorder::new(Box::new(FanoutSink::new(vec![
        Box::new(jsonl),
        Box::new(RegistrySink::new(Arc::clone(registry))),
    ])));

    let mut run = |resume: bool| -> Result<f64, TrainError> {
        let setting = load_setting(&spec.setting, spec.seed).map_err(TrainError::Config)?;
        let optimizer = OptimizerKind::parse(&spec.optimizer).map_err(TrainError::Config)?;
        let schedule = spec.parsed_schedule().map_err(TrainError::Config)?;
        let lr = spec.lr.unwrap_or_else(|| setting.default_lr(&optimizer));
        let dtype = DType::parse(&spec.dtype).map_err(TrainError::Config)?;
        let ft = FtConfig {
            checkpoint_every: (spec.checkpoint_every > 0).then_some(spec.checkpoint_every),
            checkpoint_path: (spec.checkpoint_every > 0).then(|| ckpt_path.clone()),
            resume_from: resume.then(|| ckpt_path.clone()),
            stop_flag: Some(Arc::clone(&record.cancel)),
            heartbeat: ctx.heartbeat.clone(),
            ..FtConfig::default()
        };
        setting.run_ft(
            spec.budget,
            optimizer,
            schedule,
            lr,
            spec.seed,
            dtype,
            ft,
            &mut rec,
        )
    };
    let outcome = match run(spec.checkpoint_every > 0 && ckpt_path.is_file()) {
        Err(TrainError::Checkpoint {
            action: "load",
            source,
            ..
        }) => {
            // A checkpoint that no longer decodes would fail every resume
            // forever: quarantine it and start over.
            let quarantined = ckpt_path.with_extension("state.poisoned");
            let _ = std::fs::rename(&ckpt_path, &quarantined);
            eprintln!(
                "rexd: quarantined poisoned checkpoint {} ({source}); \
                 restarting {id} from scratch",
                ckpt_path.display()
            );
            registry.counter_inc("rex_ckpt_quarantined_total", 1);
            run(false)
        }
        other => other,
    };
    // run_ft flushed the finished trace; dropping the recorder flushes
    // (and fsyncs) whatever an early exit left unwritten
    drop(rec);

    // Counters increment BEFORE the manifest flips terminal: the ledger
    // is the synchronization point clients poll, so anyone who observes
    // a terminal state and then scrapes /metrics sees the matching
    // count. (The reverse order has a window where a job reads "done"
    // but is not yet counted.)
    match outcome {
        Ok(metric) => {
            registry.counter_inc("rex_jobs_completed_total", 1);
            ledger.set_state(id, JobState::Done, Some(metric), None)?;
            Ok(RunOutcome::Done)
        }
        Err(TrainError::Halted { .. }) if record.cancel.load(Ordering::Acquire) => {
            // One flag, three meanings — disambiguate in priority order.
            if record.user_cancel.load(Ordering::Acquire) {
                registry.counter_inc("rex_jobs_canceled_total", 1);
                ledger.set_state(id, JobState::Canceled, None, None)?;
                Ok(RunOutcome::Canceled)
            } else if record.watchdog_fired.load(Ordering::Acquire) {
                Ok(RunOutcome::Retry("watchdog: no step progress".to_owned()))
            } else if ctx
                .draining
                .as_ref()
                .is_some_and(|d| d.load(Ordering::Acquire))
            {
                registry.counter_inc("rex_jobs_drained_total", 1);
                ledger.set_state(id, JobState::Queued, None, None)?;
                Ok(RunOutcome::Drained)
            } else {
                registry.counter_inc("rex_jobs_canceled_total", 1);
                ledger.set_state(id, JobState::Canceled, None, None)?;
                Ok(RunOutcome::Canceled)
            }
        }
        Err(e) if is_transient(&e) => Ok(RunOutcome::Retry(e.to_string())),
        Err(e) => {
            registry.counter_inc("rex_jobs_failed_total", 1);
            ledger.set_state(id, JobState::Failed, None, Some(e.to_string()))?;
            Ok(RunOutcome::Failed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rex_ledger_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> JobSpec {
        JobSpec {
            setting: "digits-mlp".to_owned(),
            budget: 25,
            schedule: "rex".to_owned(),
            optimizer: "sgdm".to_owned(),
            seed: 7,
            lr: None,
            checkpoint_every: 2,
            dtype: "f32".to_owned(),
            max_retries: DEFAULT_MAX_RETRIES,
        }
    }

    #[test]
    fn spec_parses_defaults_and_rejects_garbage() {
        let s = JobSpec::parse(r#"{"setting":"digits-mlp","budget":25}"#, 5, 3).unwrap();
        assert_eq!(s.schedule, "rex");
        assert_eq!(s.optimizer, "sgdm");
        assert_eq!(s.checkpoint_every, 5);
        assert_eq!(s.seed, 0);
        assert_eq!(s.max_retries, 3);
        assert!(s.lr.is_none());

        for bad in [
            "not json",
            "{}",
            r#"{"setting":"warp-drive","budget":10}"#,
            r#"{"setting":"digits-mlp","budget":0}"#,
            r#"{"setting":"digits-mlp","budget":101}"#,
            r#"{"setting":"digits-mlp","budget":10,"schedule":"warp"}"#,
            r#"{"setting":"digits-mlp","budget":10,"optimizer":"lion"}"#,
            r#"{"setting":"digits-mlp","budget":10,"lr":-1}"#,
            r#"{"setting":"digits-mlp","budget":10,"lr":1e39}"#,
            r#"{"setting":"digits-mlp","budget":10,"lr":1e-46}"#,
            r#"{"setting":"digits-mlp","budget":10,"surprise":1}"#,
            r#"{"setting":"digits-mlp","budget":10,"dtype":"f64"}"#,
            r#"{"setting":"digits-mlp","budget":10,"dtype":"q8_0"}"#,
        ] {
            assert!(JobSpec::parse(bad, 5, 3).is_err(), "accepted {bad:?}");
        }

        let s = JobSpec::parse(
            r#"{"setting":"digits-mlp","budget":25,"dtype":"f16","max_retries":0}"#,
            5,
            3,
        )
        .unwrap();
        assert_eq!(s.dtype, "f16");
        assert_eq!(DType::parse(&s.dtype).unwrap(), DType::F16);
        assert_eq!(s.max_retries, 0);
    }

    #[test]
    fn record_round_trips_through_json() {
        let record = JobRecord {
            id: "job-000042".to_owned(),
            spec: spec(),
            state: JobState::Done,
            metric: Some(12.5),
            error: None,
            resumes: 1,
            retries: 2,
            retry_after_ms: Some(150),
            request_id: Some("c3-r1".to_owned()),
            cancel: Arc::new(AtomicBool::new(false)),
            user_cancel: Arc::new(AtomicBool::new(false)),
            watchdog_fired: Arc::new(AtomicBool::new(false)),
        };
        let back = JobRecord::from_json(&record.to_json()).unwrap();
        assert_eq!(back.id, record.id);
        assert_eq!(back.spec, record.spec);
        assert_eq!(back.state, record.state);
        assert_eq!(back.metric, record.metric);
        assert_eq!(back.resumes, 1);
        assert_eq!(back.retries, 2);
        assert_eq!(back.retry_after_ms, Some(150));
        assert_eq!(back.spec.max_retries, DEFAULT_MAX_RETRIES);
        assert_eq!(back.request_id.as_deref(), Some("c3-r1"));

        // manifests written before request ids existed still parse
        let legacy = record.to_json().replace(",\"request_id\":\"c3-r1\"", "");
        assert_eq!(JobRecord::from_json(&legacy).unwrap().request_id, None);
    }

    #[test]
    fn ledger_persists_and_reopens() {
        let dir = tmp_dir("reopen");
        {
            let ledger = Ledger::open(&dir).unwrap();
            let a = ledger.create(spec(), None);
            ledger.commit(&a).unwrap();
            ledger
                .set_state(&a.id, JobState::Done, Some(3.5), None)
                .unwrap();
            let b = ledger.create(spec(), None);
            ledger.commit(&b).unwrap();
            ledger
                .set_state(&b.id, JobState::Running, None, None)
                .unwrap();
            // a discarded record leaves no trace
            let c = ledger.create(spec(), None);
            ledger.discard(&c.id);
        }
        let ledger = Ledger::open(&dir).unwrap();
        let jobs = ledger.list();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].state, JobState::Done);
        assert_eq!(jobs[0].metric, Some(3.5));
        // the running job came back queued, resume count bumped
        assert_eq!(jobs[1].state, JobState::Queued);
        assert_eq!(jobs[1].resumes, 1);
        assert_eq!(ledger.recoverable().unwrap(), vec![jobs[1].id.clone()]);
        // the discarded id was never accepted, so allocation reclaims it
        let d = ledger.create(spec(), None);
        assert_eq!(d.id, "job-000003");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn finished_jobs_live_only_in_their_manifests() {
        let dir = tmp_dir("finished");
        let ledger = Ledger::open(&dir).unwrap();
        let mut expected = Vec::new();
        for (state, metric, error) in [
            (JobState::Done, Some(0.1 + 0.2), None),
            (
                JobState::Failed,
                None,
                Some("loss \"nan\"\n\u{1}".to_owned()),
            ),
            (JobState::Canceled, None, None),
        ] {
            let job = ledger.create(spec(), Some("c1-r1".to_owned()));
            ledger.commit(&job).unwrap();
            ledger
                .set_state(&job.id, JobState::Running, None, None)
                .unwrap();
            let last = ledger.set_state(&job.id, state, metric, error).unwrap();
            expected.push(last.unwrap().to_json());
        }
        assert!(ledger.live.lock().unwrap().is_empty());
        assert_eq!(ledger.counts(), JobCounts::default());

        // the manifests give back the text each record had in memory
        let listed: Vec<String> = ledger.list().iter().map(JobRecord::to_json).collect();
        assert_eq!(listed, expected);
        for (n, text) in (1..).zip(&expected) {
            assert_eq!(ledger.get(&format!("job-{n:06}")).unwrap().to_json(), *text);
        }
        assert!(ledger.get("job-000004").is_none());

        // Only job-<digits> ids are looked up on disk: plant a manifest
        // naming each other id where a lookup of it would read.
        let manifest =
            |id: &str| expected[0].replace("\"id\":\"job-000001\"", &format!("\"id\":{id:?}"));
        for (id, at) in [
            ("..", dir.clone()),
            ("job-", dir.join("jobs/job-")),
            ("job-1/..", dir.join("jobs")),
            ("jobs", dir.join("jobs/jobs")),
        ] {
            std::fs::create_dir_all(&at).unwrap();
            std::fs::write(at.join("job.json"), manifest(id)).unwrap();
            assert!(ledger.get(id).is_none(), "{id}");
        }
        assert_eq!(ledger.list().len(), 3);
        let _ = std::fs::remove_dir_all(dir);

        // Ledger::open refuses a corrupt manifest whatever its state: a
        // field of the wrong type, a budget no submission could carry, or
        // a manifest naming another job than its directory does
        for state in ["queued", "running", "done", "failed", "canceled"] {
            let text = expected[0].replace("\"done\"", &format!("\"{state}\""));
            let bad_budget = text.replace("\"budget\":25", "\"budget\":\"25\"");
            let zero_budget = text.replace("\"budget\":25", "\"budget\":0");
            let wrong_id = text.replace("job-000001", "job-000002");
            for corrupt in [bad_budget, zero_budget, wrong_id] {
                let dir = tmp_dir("corrupt");
                std::fs::create_dir_all(dir.join("jobs/job-000001")).unwrap();
                std::fs::write(dir.join("jobs/job-000001/job.json"), &corrupt).unwrap();
                let err = Ledger::open(&dir).err().expect("opened a corrupt ledger");
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{corrupt}");
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    /// The decoder court's rules, applied to the manifest decoder that
    /// finished-job lookups run on the request path: Prng-seeded byte
    /// flips, truncations and insertions of a real manifest each decode or
    /// are refused, none panics, and both verdicts occur.
    #[test]
    fn manifest_mutants_never_panic() {
        let record = JobRecord {
            id: "job-000042".to_owned(),
            spec: JobSpec {
                lr: Some(0.05),
                ..spec()
            },
            state: JobState::Failed,
            metric: Some(91.25),
            error: Some("checkpoint \"ckpt\": disk full\n\u{7}é".to_owned()),
            resumes: 1,
            retries: 3,
            retry_after_ms: Some(150),
            request_id: Some("c3-r1".to_owned()),
            cancel: Arc::new(AtomicBool::new(false)),
            user_cancel: Arc::new(AtomicBool::new(false)),
            watchdog_fired: Arc::new(AtomicBool::new(false)),
        };
        let dir = tmp_dir("court").join("job-000042");
        std::fs::create_dir_all(&dir).unwrap();
        let template = (record.to_json() + "\n").into_bytes();
        let n = template.len();
        let mut rng = rex_tensor::Prng::new(22);
        let (mut accepted, mut rejected, mut panics) = (0, 0, Vec::new());
        for i in 0..3000 {
            let mut bytes = template.clone();
            match rng.below(3) {
                0 => {
                    for _ in 0..=rng.below(3) {
                        bytes[rng.below(n)] ^= 1 << rng.below(8);
                    }
                }
                1 => bytes.truncate(rng.below(n)),
                // bytes drawn from the manifest itself: quotes, escapes,
                // digits and braces reach past the first check
                _ => {
                    let at = rng.below(n + 1);
                    let insert: Vec<u8> =
                        (0..=rng.below(4)).map(|_| template[rng.below(n)]).collect();
                    bytes.splice(at..at, insert);
                }
            }
            std::fs::write(dir.join("job.json"), &bytes).unwrap();
            match std::panic::catch_unwind(|| read_manifest(&dir)) {
                Err(_) => panics.push(i),
                Ok(Ok(_)) => accepted += 1,
                Ok(Err(_)) => rejected += 1,
            }
        }
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
        assert!(panics.is_empty(), "mutants {panics:?} panicked");
        assert!(
            accepted > 0 && rejected > 0,
            "{accepted} accepted, {rejected} rejected"
        );
    }

    #[test]
    fn run_job_trains_to_done_and_cancel_pre_run_short_circuits() {
        let dir = tmp_dir("run");
        let ledger = Ledger::open(&dir).unwrap();
        let registry = MetricsRegistry::shared();

        let job = ledger.create(spec(), None);
        ledger.commit(&job).unwrap();
        assert_eq!(
            run_job(&ledger, &registry, &job.id, &RunCtx::default()).unwrap(),
            RunOutcome::Done
        );
        let done = ledger.get(&job.id).unwrap();
        assert_eq!(done.state, JobState::Done);
        assert!(done.metric.is_some());
        assert!(ledger.trace_path(&job.id).is_file());
        assert!(ledger.ckpt_path(&job.id).is_file());
        assert_eq!(registry.counter("rex_jobs_completed_total"), 1);

        let job2 = ledger.create(spec(), None);
        ledger.commit(&job2).unwrap();
        job2.cancel.store(true, Ordering::Release);
        assert_eq!(
            run_job(&ledger, &registry, &job2.id, &RunCtx::default()).unwrap(),
            RunOutcome::Canceled
        );
        assert_eq!(ledger.get(&job2.id).unwrap().state, JobState::Canceled);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        for attempt in 1..=10u64 {
            let a = backoff_ms("job-000001", attempt);
            assert_eq!(a, backoff_ms("job-000001", attempt), "not deterministic");
            let ceiling = (50u64 << (attempt - 1).min(8)).min(5_000);
            assert!(
                (1..=ceiling).contains(&a),
                "attempt {attempt}: {a} > {ceiling}"
            );
        }
        // different jobs draw different pauses (full jitter, not lockstep)
        assert_ne!(backoff_ms("job-000001", 3), backoff_ms("job-000002", 3));
    }

    #[test]
    fn record_retry_books_backoff_and_clears_halt_flags() {
        let dir = tmp_dir("retry");
        let ledger = Ledger::open(&dir).unwrap();
        let job = ledger.create(spec(), None);
        ledger.commit(&job).unwrap();
        ledger
            .set_state(&job.id, JobState::Running, None, None)
            .unwrap();
        job.cancel.store(true, Ordering::Release);
        job.watchdog_fired.store(true, Ordering::Release);

        let back = ledger.record_retry(&job.id, 250).unwrap().unwrap();
        assert_eq!(back.state, JobState::Queued);
        assert_eq!(back.retries, 1);
        assert_eq!(back.retry_after_ms, Some(250));
        assert!(!job.cancel.load(Ordering::Acquire));
        assert!(!job.watchdog_fired.load(Ordering::Acquire));

        // the retry budget survives a daemon restart
        let ledger = Ledger::open(&dir).unwrap();
        let revived = ledger.get(&job.id).unwrap();
        assert_eq!(revived.retries, 1);
        assert_eq!(revived.retry_after_ms, Some(250));
        // a fresh attempt clears the advertised backoff
        ledger
            .set_state(&job.id, JobState::Running, None, None)
            .unwrap();
        assert_eq!(ledger.get(&job.id).unwrap().retry_after_ms, None);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn poisoned_checkpoint_is_quarantined_and_job_restarts_fresh() {
        let dir = tmp_dir("poison");
        let ledger = Ledger::open(&dir).unwrap();
        let registry = MetricsRegistry::shared();
        let job = ledger.create(spec(), None);
        ledger.commit(&job).unwrap();
        std::fs::create_dir_all(ledger.job_dir(&job.id)).unwrap();
        std::fs::write(
            ledger.ckpt_path(&job.id),
            b"REXSTATE1 this is not a checkpoint",
        )
        .unwrap();

        assert_eq!(
            run_job(&ledger, &registry, &job.id, &RunCtx::default()).unwrap(),
            RunOutcome::Done
        );
        assert!(ledger
            .ckpt_path(&job.id)
            .with_extension("state.poisoned")
            .is_file());
        assert!(registry.counter("rex_ckpt_quarantined_total") >= 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A trace shorter than its checkpoint's cursor is a trace fault, not
    /// a poisoned checkpoint: the job is retried, naming the trace, and
    /// the good checkpoint stays where it is.
    #[test]
    fn short_trace_is_retried_and_the_checkpoint_kept() {
        let dir = tmp_dir("short_trace");
        let ledger = Ledger::open(&dir).unwrap();
        let registry = MetricsRegistry::shared();
        let job = ledger.create(spec(), None);
        ledger.commit(&job).unwrap();
        std::fs::create_dir_all(ledger.job_dir(&job.id)).unwrap();
        // the job's own run, halted after its step-2 checkpoint, whose
        // trace never reached the job's trace file
        let setting = load_setting("digits-mlp", 7).unwrap();
        let sgdm = OptimizerKind::sgdm();
        let ft = FtConfig {
            checkpoint_every: Some(2),
            checkpoint_path: Some(ledger.ckpt_path(&job.id)),
            halt_after_step: Some(2),
            ..FtConfig::default()
        };
        let mut rec = Recorder::new(Box::new(rex_telemetry::MemorySink::unbounded()));
        let lr = setting.default_lr(&sgdm);
        let halted = setting.run_ft(25, sgdm, ScheduleSpec::Rex, lr, 7, DType::F32, ft, &mut rec);
        assert!(matches!(halted, Err(TrainError::Halted { step: 2 })));

        let trace = ledger.trace_path(&job.id).display().to_string();
        match run_job(&ledger, &registry, &job.id, &RunCtx::default()).unwrap() {
            RunOutcome::Retry(msg) => assert!(msg.contains(&trace), "{msg}"),
            other => panic!("expected a retry, got {other:?}"),
        }
        assert!(
            ledger.ckpt_path(&job.id).is_file(),
            "checkpoint quarantined"
        );
        assert_eq!(registry.counter("rex_ckpt_quarantined_total"), 0);
        let _ = std::fs::remove_dir_all(dir);
    }
}
