"""Validation, evidence enrichment and few-shot evaluation for Portuguese
fake-news corpora.

The pipeline: validate a corpus (filters, near-duplicate and contradiction
review, URL stripping), enrich each record with web search results, an
LLM-extracted claim when the text itself finds no match, and fact-check
reviews, then analyze the outcome and run a few-shot classification
evaluation over the enriched data.
"""
