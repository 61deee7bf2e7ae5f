"""sparse-expand: query expansion for sparse metadata search.

Index multi-field metadata records, generate related-concept suggestions
by corpus co-occurrence, encyclopedia lead-section links or document
similarity, expand short topics into boosted queries, and score runs
with standard IR metrics.
"""

__version__ = "0.1.0"

from .analysis import AnalyzerChain, chain_for, de_normalize, porter_stem
from .corpus import (
    DEFAULT_SCHEMA,
    CoverageReport,
    Document,
    Topic,
    TopicStats,
    coverage_report,
    ingest_documents,
    read_topics,
    topic_stats,
)
from .docsim import SimCorpus, suggest_docsim
from .errors import (
    AnalysisError,
    ConfigError,
    DataError,
    DuplicateDocumentError,
    EmptyCorpusError,
    EmptyQueryError,
    SeedNotFoundError,
    SparseExpandError,
    UnknownFieldError,
)
from .evaluation import (
    MetricReport,
    average_precision,
    evaluate_run,
    evaluate_suggestions,
    r_precision,
    se_precision,
)
from .expand import (
    ExpansionConfig,
    build_query,
    combo_merge,
    parse_query,
    serialize_query,
)
from .index import Hits, Index, Phrase, Query, ScoredDoc, Term, build_index
from .pipeline import PipelineConfig, config_validate, load_config, run_pipeline
from .str_recommender import CooccurConfig, jaccard, log_jaccard, suggest_str
from .suggestions import ConceptSuggestion, SuggestionSet, make_suggestion_set
from .wiki_lead import (
    ArticleStore,
    LeadExtract,
    MatchResult,
    extract_lead,
    strip_markup,
    suggest_wiki_lead,
)
