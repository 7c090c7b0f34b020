"""Desk-scale federated learning simulator with difficulty-scaled aggregation."""
